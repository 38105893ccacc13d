package faults

import (
	"net"
	"sync"
)

// Recorder wraps a net.Conn and records the message-type byte of every
// protocol frame crossing it, per direction. The privacy e2e tests use it
// as the runtime counterpart of the static privleak pass: wrap the
// anonymizer→database link and assert that no exact-location message type
// ever appears in the trace. Frame boundaries are recovered from the wire
// format's length prefix ([u32 length][type][payload]), so the recorder
// sees exactly the frames the peer will decode.
type Recorder struct {
	net.Conn

	mu     sync.Mutex
	rd, wr tracker
}

// Record wraps conn.
func Record(conn net.Conn) *Recorder {
	return &Recorder{Conn: conn, rd: tracker{record: true}, wr: tracker{record: true}}
}

// Read implements net.Conn.
func (r *Recorder) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	r.rd.feed(p[:n])
	r.mu.Unlock()
	return n, err
}

// Write implements net.Conn.
func (r *Recorder) Write(p []byte) (int, error) {
	n, err := r.Conn.Write(p)
	r.mu.Lock()
	r.wr.feed(p[:n])
	r.mu.Unlock()
	return n, err
}

// Reads returns the message types of the frames read so far, in order.
func (r *Recorder) Reads() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.rd.types...)
}

// Writes returns the message types of the frames written so far, in order.
func (r *Recorder) Writes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.wr.types...)
}
