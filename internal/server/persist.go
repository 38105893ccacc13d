package server

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/regidx"
)

// Snapshot / Restore persist the server's full state — stationary objects,
// moving objects, private regions, and standing continuous queries — in a
// versioned little-endian binary format. A snapshot taken under load is
// consistent: it is produced under the server mutex.
//
// Layout (version 1):
//
//	magic "PALB" | u16 version
//	u32 nStationary | (u64 id, u16 classLen, class, f64 x, f64 y)*
//	u32 nMoving     | (u64 id, f64 x, f64 y)*
//	u32 nPrivate    | (u64 id, rect)*
//	u32 nContCount  | (u64 id, rect)*
//	u32 nContPriv   | (u64 id, rect region, f64 radius)*
//
// Continuous answers and candidate sets are not stored; they are
// deterministically rebuilt from the data on restore.

var snapshotMagic = [4]byte{'P', 'A', 'L', 'B'}

const snapshotVersion = 1

type snapWriter struct {
	w   *bufio.Writer
	err error
}

func (sw *snapWriter) bytes(b []byte) {
	if sw.err == nil {
		_, sw.err = sw.w.Write(b)
	}
}

func (sw *snapWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	sw.bytes(b[:])
}

func (sw *snapWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.bytes(b[:])
}

func (sw *snapWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.bytes(b[:])
}

func (sw *snapWriter) f64(v float64) { sw.u64(math.Float64bits(v)) }

func (sw *snapWriter) str(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	sw.u16(uint16(len(s)))
	sw.bytes([]byte(s))
}

func (sw *snapWriter) rect(r geo.Rect) {
	sw.f64(r.Min.X)
	sw.f64(r.Min.Y)
	sw.f64(r.Max.X)
	sw.f64(r.Max.Y)
}

// Snapshot writes the server's state to w. Every section is written in
// ascending id order, so equal states produce byte-equal snapshots
// whatever the history of maps and buckets behind them.
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()

	sw := &snapWriter{w: bufio.NewWriter(w)}
	sw.bytes(snapshotMagic[:])
	sw.u16(snapshotVersion)

	// Stationary objects, in ID order whatever their slots.
	stationary := slices.Clone(s.st.objs)
	SortObjects(stationary)
	sw.u32(uint32(len(stationary)))
	for _, o := range stationary {
		sw.u64(o.ID)
		sw.str(o.Class)
		sw.f64(o.Loc.X)
		sw.f64(o.Loc.Y)
	}

	moving := s.moving.All(nil)
	slices.SortFunc(moving, func(a, b grid.Object) int { return cmp.Compare(a.ID, b.ID) })
	sw.u32(uint32(len(moving)))
	for _, o := range moving {
		sw.u64(o.ID)
		sw.f64(o.Loc.X)
		sw.f64(o.Loc.Y)
	}

	private := s.privateRecordsLocked()
	slices.SortFunc(private, cmpRecordID)
	sw.u32(uint32(len(private)))
	for _, rec := range private {
		sw.u64(rec.ID)
		sw.rect(rec.Region)
	}

	sw.u32(uint32(len(s.cont.queries)))
	for _, id := range sortedIDs(s.cont.queries) {
		sw.u64(id)
		sw.rect(s.cont.queries[id].query)
	}

	sw.u32(uint32(len(s.contPriv.queries)))
	for _, id := range sortedIDs(s.contPriv.queries) {
		q := s.contPriv.queries[id]
		sw.u64(id)
		sw.rect(q.region)
		sw.f64(q.radius)
	}

	if sw.err != nil {
		return fmt.Errorf("server: snapshot: %w", sw.err)
	}
	s.met.snapshotsTaken.Inc()
	return sw.w.Flush()
}

// sortedIDs returns a map's keys in ascending order.
func sortedIDs[V any](m map[uint64]V) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SaveSnapshot writes the server's state to path crash-safely: the
// snapshot goes to a temporary file in the same directory, is fsynced,
// and is then atomically renamed over path. A crash at any point leaves
// either the old complete snapshot or the new complete snapshot — never a
// torn file (which Restore would reject anyway).
func (s *Server) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("server: save snapshot: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: save snapshot: %w", err)
	}
	if err := s.Snapshot(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: save snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: save snapshot: %w", err)
	}
	// Persist the rename itself; best effort — some platforms refuse
	// directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadSnapshot restores the server's state from a snapshot file written by
// SaveSnapshot. A missing file is reported via os.IsNotExist on the
// returned error so daemons can treat first boot as empty state.
func (s *Server) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Restore(f)
}

type snapReader struct {
	r   *bufio.Reader
	err error
}

func (sr *snapReader) bytes(n int) []byte {
	if sr.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(sr.r, b); err != nil {
		sr.err = err
		return nil
	}
	return b
}

func (sr *snapReader) u16() uint16 {
	b := sr.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (sr *snapReader) u32() uint32 {
	b := sr.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (sr *snapReader) u64() uint64 {
	b := sr.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (sr *snapReader) f64() float64 { return math.Float64frombits(sr.u64()) }

func (sr *snapReader) str() string {
	n := int(sr.u16())
	b := sr.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (sr *snapReader) rect() geo.Rect {
	return geo.Rect{
		Min: geo.Point{X: sr.f64(), Y: sr.f64()},
		Max: geo.Point{X: sr.f64(), Y: sr.f64()},
	}
}

// Restore replaces the server's state with a snapshot previously written
// by Snapshot. On error the server is left unchanged.
func (s *Server) Restore(r io.Reader) error {
	sr := &snapReader{r: bufio.NewReader(r)}
	var magic [4]byte
	copy(magic[:], sr.bytes(4))
	if sr.err == nil && magic != snapshotMagic {
		return fmt.Errorf("server: restore: bad magic %q", magic[:])
	}
	if v := sr.u16(); sr.err == nil && v != snapshotVersion {
		return fmt.Errorf("server: restore: unsupported version %d", v)
	}

	// Decode everything before touching server state.
	nStat := int(sr.u32())
	stationary := make([]PublicObject, 0, nStat)
	for i := 0; i < nStat && sr.err == nil; i++ {
		stationary = append(stationary, PublicObject{
			ID:    sr.u64(),
			Class: sr.str(),
			Loc:   geo.Point{X: sr.f64(), Y: sr.f64()},
		})
	}
	nMov := int(sr.u32())
	type movObj struct {
		id  uint64
		loc geo.Point
	}
	moving := make([]movObj, 0, nMov)
	for i := 0; i < nMov && sr.err == nil; i++ {
		moving = append(moving, movObj{id: sr.u64(), loc: geo.Point{X: sr.f64(), Y: sr.f64()}})
	}
	nPriv := int(sr.u32())
	private := make([]PrivateRecord, 0, nPriv)
	for i := 0; i < nPriv && sr.err == nil; i++ {
		private = append(private, PrivateRecord{ID: sr.u64(), Region: sr.rect()})
	}
	nCont := int(sr.u32())
	type contQ struct {
		id uint64
		q  geo.Rect
	}
	contQueries := make([]contQ, 0, nCont)
	for i := 0; i < nCont && sr.err == nil; i++ {
		contQueries = append(contQueries, contQ{id: sr.u64(), q: sr.rect()})
	}
	nCP := int(sr.u32())
	type cpQ struct {
		id     uint64
		region geo.Rect
		radius float64
	}
	cpQueries := make([]cpQ, 0, nCP)
	for i := 0; i < nCP && sr.err == nil; i++ {
		cpQueries = append(cpQueries, cpQ{id: sr.u64(), region: sr.rect(), radius: sr.f64()})
	}
	if sr.err != nil {
		return fmt.Errorf("server: restore: %w", sr.err)
	}

	// Validate before committing.
	for _, o := range stationary {
		if !s.world.Contains(o.Loc) {
			return fmt.Errorf("server: restore: stationary %d outside world", o.ID)
		}
	}
	for _, m := range moving {
		if !s.world.Contains(m.loc) {
			return fmt.Errorf("server: restore: moving %d outside world", m.id)
		}
	}
	for _, rec := range private {
		if !rec.Region.Valid() || !s.world.Intersects(rec.Region) {
			return fmt.Errorf("server: restore: private region %d invalid", rec.ID)
		}
	}
	for _, cq := range contQueries {
		if !cq.q.Valid() {
			return fmt.Errorf("server: restore: continuous query %d invalid", cq.id)
		}
	}
	for _, cq := range cpQueries {
		if !cq.region.Valid() || !(cq.radius >= 0) || !cq.region.Expand(cq.radius).Valid() {
			return fmt.Errorf("server: restore: continuous private query %d invalid", cq.id)
		}
	}
	privIdx, err := regidx.New(s.world, 32, 32)
	if err != nil {
		return err
	}
	for _, rec := range private {
		if err := privIdx.Upsert(rec.ID, rec.Region); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	s.st = newStationaryStore(stationary)
	s.stationaryGen++

	cols, rows := s.moving.Dims()
	fresh, err := grid.New(s.world, cols, rows)
	if err != nil {
		return err
	}
	s.moving = fresh
	for _, m := range moving {
		s.moving.Upsert(m.id, m.loc)
	}

	s.privIdx = privIdx

	// Rebuild continuous engines, their query indexes included,
	// deterministically from data. The rectangles were validated above,
	// so add cannot refuse them.
	s.cont = newContinuousEngine(s.world)
	var hits []regidx.Hit
	for _, cq := range contQueries {
		hits = s.privIdx.QueryHits(cq.q, hits[:0])
		s.cont.add(cq.id, cq.q, hits)
	}
	s.contPriv = newContPrivEngine(s.world)
	for _, cq := range cpQueries {
		s.contPriv.add(cq.id, cq.region, cq.radius, s.moving)
	}
	s.met.restoresApplied.Inc()
	// Re-point the size gauges at the restored data set.
	s.met.privateUsers.Set(float64(s.privIdx.Len()))
	s.met.stationary.Set(float64(s.st.tree.Len()))
	s.met.moving.Set(float64(s.moving.Len()))
	s.met.contQueries.Set(float64(len(s.cont.queries)))
	return nil
}
