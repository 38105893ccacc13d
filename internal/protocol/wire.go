// Package protocol implements the three-tier deployment of Figure 1 as
// real TCP services: a compact length-prefixed binary wire format, the
// anonymizer service (which users send exact locations to), the database
// service (which only ever receives cloaked regions), and the matching
// clients. The separation mirrors the paper's trust model — the only
// message type carrying an exact location terminates at the anonymizer.
//
// The package is the single owner of the wire format: the messages table
// states each type's label, retry safety and admission class once, and
// every body has exactly one encodeX(*codec.Encoder, T) /
// decodeX(*codec.Decoder) T pair, called statically by stub, handler and
// the codecs that embed it. The primitives those pairs are built from
// live in internal/codec, which the server's snapshot shares.
package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Message types. Requests 1–9 are served by the anonymizer; 10+ by the
// database server. Type 0/1 are the generic OK/error responses.
const (
	msgOK  byte = 0
	msgErr byte = 1

	// Anonymizer service.
	MsgRegister    byte = 2
	MsgUpdate      byte = 3
	MsgCloakQuery  byte = 4
	MsgDeregister  byte = 5
	MsgSetMode     byte = 6
	MsgBatchUpdate byte = 7
	MsgAnonStats   byte = 8
	// MsgUpdateProfile replaces a registered user's privacy profile in
	// place — the wire form of a "raise my k" flip, without the
	// deregister/register round trip that would drop the user from the
	// population mid-run.
	MsgUpdateProfile byte = 9

	// Database service.
	MsgUpdatePrivate  byte = 10
	MsgRemovePrivate  byte = 11
	MsgPrivateRange   byte = 12
	MsgPrivateNN      byte = 13
	MsgPublicCount    byte = 14
	MsgPublicNN       byte = 15
	MsgLoadStationary byte = 16
	MsgStats          byte = 17
	MsgRegContCount   byte = 18
	MsgContCount      byte = 19
	MsgUnregContCount byte = 20
	MsgUpdateMoving   byte = 21
	// MsgBatchQuery carries a mixed batch of range/NN/count queries in one
	// frame; the OK response payload is a typed
	// MsgBatchResult sub-frame with one status-tagged result per entry.
	MsgBatchQuery  byte = 22
	MsgBatchResult byte = 23

	// MsgMetrics is served by the Service layer itself on any instrumented
	// service (see WithMetrics): the response carries a full snapshot of
	// the daemon's metric registry, histograms included, so load tools can
	// print end-of-run percentile tables from live daemons.
	MsgMetrics byte = 30

	// MsgTraced is the distributed-tracing envelope: a span context
	// (trace id, parent span id, flags) followed by the inner request
	// frame verbatim. A client wraps every request whose span is
	// recording; every Service unwraps it and dispatches the inner frame,
	// with the span context installed in the request context when the
	// service is traced.
	MsgTraced byte = 31
	// MsgTraces pulls the service's span ring buffer (served by the
	// Service layer when tracing is configured, like MsgMetrics).
	MsgTraces byte = 32

	// MsgOverloaded is the admission-control rejection response: the
	// service refused to start the request because its in-flight budget
	// (or the anonymizer's forward queue, under backpressure) is
	// exhausted. Distinct from msgErr so clients can tell a deliberate
	// shed — retry later, peer healthy — from a handler failure.
	MsgOverloaded byte = 34

	// MsgRemoveMoving deletes a moving public object by id; the response
	// reports whether it existed. The routing tier needs the wire form for
	// tile handoffs: a moving object crossing a tile boundary is upserted
	// on the new owner and removed from the old one.
	MsgRemoveMoving byte = 35
	// MsgNNParts is the shard-local half of a private NN query: the
	// response carries the partition's min–max bound and its unpruned
	// candidate set (server.NNParts), which the router combines across
	// shards into the exact single-server answer.
	MsgNNParts byte = 36
	// MsgCountProbs is the shard-local half of a public count: the
	// response carries (user id, overlap probability) pairs sorted by id,
	// which the router deduplicates and folds into the exact PDF.
	MsgCountProbs byte = 37
	// MsgShardMap is served by the routing tier: the response describes
	// its tile grid and the tile→shard ownership table, for operators and
	// load tools inspecting the topology.
	MsgShardMap byte = 38
	// MsgShardBatch is the forwarded sub-batch the router scatters to one
	// shard: index-tagged batch entries in, index-tagged partial results
	// (objects, NN parts, count probs) out, preserving per-entry error
	// semantics across the extra hop.
	MsgShardBatch byte = 39
)

// Admission classes. The zero value is the update class, so a type byte
// with no row in the messages table is budgeted like a write.
const (
	admitUpdate = iota // writes that keep privacy state fresh: shed only at the hard cap
	admitQuery         // reads: shed first, callers can retry
	admitAlways        // observability: must survive overload
)

// message is one row of the messages table: what the transport needs to
// know about a type byte other than its body layout.
type message struct {
	// label is the stable "type" value of metric series and trace attributes.
	label string
	// idempotent marks a request that may be re-sent after a transport
	// failure. Location updates and region forwards are upserts,
	// mode/deregister changes converge to the same state, and reads have
	// no side effects — all safe to replay. Registration (duplicate-user
	// error), continuous-query registration (allocates a fresh id per
	// call) and stationary bulk loads (append semantics) are not.
	idempotent bool
	// class is the type's admission class.
	class int
	// response marks a reply or sub-frame type: no service dispatches on it.
	response bool
}

// messages has one row per message type, indexed by type byte, so two
// rows cannot share a byte.
var messages = [256]message{
	msgOK:  {label: "ok", response: true},
	msgErr: {label: "err", response: true},

	MsgRegister:      {label: "register"},
	MsgUpdate:        {label: "update", idempotent: true},
	MsgCloakQuery:    {label: "cloak_query", idempotent: true, class: admitQuery},
	MsgDeregister:    {label: "deregister", idempotent: true},
	MsgSetMode:       {label: "set_mode", idempotent: true},
	MsgBatchUpdate:   {label: "batch_update", idempotent: true},
	MsgAnonStats:     {label: "anon_stats", idempotent: true, class: admitAlways},
	MsgUpdateProfile: {label: "update_profile", idempotent: true},

	MsgUpdatePrivate:  {label: "update_private", idempotent: true},
	MsgRemovePrivate:  {label: "remove_private", idempotent: true},
	MsgPrivateRange:   {label: "private_range", idempotent: true, class: admitQuery},
	MsgPrivateNN:      {label: "private_nn", idempotent: true, class: admitQuery},
	MsgPublicCount:    {label: "public_count", idempotent: true, class: admitQuery},
	MsgPublicNN:       {label: "public_nn", idempotent: true, class: admitQuery},
	MsgLoadStationary: {label: "load_stationary"},
	MsgStats:          {label: "stats", idempotent: true, class: admitAlways},
	MsgRegContCount:   {label: "reg_cont_count"},
	MsgContCount:      {label: "cont_count", idempotent: true, class: admitQuery},
	MsgUnregContCount: {label: "unreg_cont_count"},
	MsgUpdateMoving:   {label: "update_moving", idempotent: true},
	MsgBatchQuery:     {label: "batch_query", idempotent: true, class: admitQuery},
	MsgBatchResult:    {label: "batch_result", response: true},

	MsgMetrics:    {label: "metrics", idempotent: true, class: admitAlways},
	MsgTraced:     {label: "traced"},
	MsgTraces:     {label: "traces", idempotent: true, class: admitAlways},
	MsgOverloaded: {label: "overloaded", response: true},

	MsgRemoveMoving: {label: "remove_moving", idempotent: true},
	MsgNNParts:      {label: "nn_parts", idempotent: true, class: admitQuery},
	MsgCountProbs:   {label: "count_probs", idempotent: true, class: admitQuery},
	MsgShardMap:     {label: "shard_map", idempotent: true, class: admitAlways},
	MsgShardBatch:   {label: "shard_batch", idempotent: true, class: admitQuery},
}

// MessageName returns the stable label value used for per-message-type
// metric series.
func MessageName(typ byte) string {
	if m := &messages[typ]; m.label != "" {
		return m.label
	}
	return fmt.Sprintf("type_%d", typ)
}

// Idempotent reports whether a message type may be safely retried after a
// transport failure.
func Idempotent(typ byte) bool { return messages[typ].idempotent }

// admissionClass buckets a message type for admission control.
func admissionClass(typ byte) int { return messages[typ].class }

// maxFrame bounds a frame to keep a misbehaving peer from ballooning
// memory: 16 MiB fits any realistic candidate list.
const maxFrame = 16 << 20

// maxPooledBuf caps what the frame pools retain: a rare jumbo frame
// (bulk load, big candidate list) must not pin megabytes in a pool — or
// in a connection's reused read buffer — for the process lifetime.
const maxPooledBuf = 64 << 10

// framePool recycles the header+payload staging buffers WriteFrame
// copies frames into. The copy buys a single Write call per frame — on
// a net.Conn the second syscall of the old hdr/payload write pair cost
// far more than memmove — and the pool makes the staging allocation-free
// in steady state.
var framePool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// WriteFrame writes [u32 length][type][payload] as one Write call. The
// staging buffer is pooled, so a warm call allocates nothing; only the
// oversize-frame error, never reached on a well-behaved path, does.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("protocol: frame too large (%d bytes)", len(payload))
	}
	bp := framePool.Get().(*[]byte)
	buf := appendFrame((*bp)[:0], typ, payload)
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		framePool.Put(bp)
	}
	return err
}

// appendFrame appends the frame [u32 length][type][payload] to buf. The
// caller has checked the payload against maxFrame.
func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)+1))
	buf = append(buf, typ)
	return append(buf, payload...)
}

// connBufSize sizes the buffers a connection's frames are read and written
// through on either side: room for a burst of pipelined small frames per
// system call; larger frames bypass them.
const connBufSize = 4096

// frameBuffered reports whether br already holds the next frame whole, so
// that reading it cannot block on the connection.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.LittleEndian.Uint32(hdr))
}

// ReadFrame reads one frame into a fresh buffer. The payload is owned by
// the caller; loops that control the payload's lifetime (one frame fully
// handled before the next read) should use ReadFrameBuf instead.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	typ, payload, _, err = ReadFrameBuf(r, nil)
	return typ, payload, err
}

// ReadFrameBuf reads one frame, reusing buf's backing array when it is
// large enough and returning the (possibly grown) buffer for the next
// call. The payload ALIASES the returned buffer: it is valid only until
// buf is passed to ReadFrameBuf again, so the caller must fully consume
// (or copy out of) the frame before reading the next one. codec.Decoder reads
// of numeric fields and Str copy out of the payload, so a decode
// completed before the next read never retains a view. Frames larger
// than maxPooledBuf get a fresh buffer and buf is returned unchanged, so
// one jumbo frame cannot pin its backing array on an idle connection.
//
// It allocates only off the steady-state path: the initial buffer (first
// call on a connection), growth past the current capacity, and the
// invalid-length error. A warm connection reads frames with zero
// allocations.
func ReadFrameBuf(r io.Reader, buf []byte) (typ byte, payload, bufOut []byte, err error) {
	// The 4-byte length prefix is read into the reused buffer too: a
	// local array would be moved to the heap on every call (it escapes
	// into the io.Reader), which is exactly the per-frame cost this
	// function exists to avoid.
	if cap(buf) < 8 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1 || n > maxFrame {
		return 0, nil, buf, fmt.Errorf("protocol: invalid frame length %d", n)
	}
	frame := buf
	if cap(frame) < n {
		frame = make([]byte, n)
		if n <= maxPooledBuf {
			buf = frame
		}
	} else {
		frame = frame[:n]
	}
	if _, err = io.ReadFull(r, frame); err != nil {
		return 0, nil, buf, err
	}
	return frame[0], frame[1:n], buf, nil
}
