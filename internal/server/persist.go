package server

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/regidx"
)

// Snapshot / Restore persist the server's full state — stationary objects,
// moving objects, private regions, and standing continuous queries — in a
// versioned binary format written by codec.Encoder and read by
// codec.Decoder, the primitives of the wire bodies. A snapshot taken under
// load is consistent: it is encoded under the server's read lock.
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

// snapshotMagic is "PALB" read as a little-endian u32.
const snapshotMagic = 'P' | 'A'<<8 | 'L'<<16 | 'B'<<24

const snapshotVersion = 1

// Snapshot writes the server's state to w. Every section is written in
// ascending id order, so equal states produce byte-equal snapshots
// whatever the history of maps and buckets behind them. The state is
// encoded under the read lock and written after it is released, so a slow
// w holds up no writer.
func (s *Server) Snapshot(w io.Writer) error {
	var e codec.Encoder
	s.mu.RLock()
	e.U32(snapshotMagic).U16(snapshotVersion)

	// Stationary objects, in slot order, which is ID order.
	st := s.st.Load()
	e.U32(uint32(len(st.objs)))
	for _, o := range st.objs {
		e.U64(o.ID).Str(o.Class).Point(o.Loc)
	}

	moving := s.moving.All(nil)
	slices.SortFunc(moving, func(a, b grid.Object) int { return cmp.Compare(a.ID, b.ID) })
	e.U32(uint32(len(moving)))
	for _, o := range moving {
		e.U64(o.ID).Point(o.Loc)
	}

	private := s.privateRecordsLocked()
	slices.SortFunc(private, cmpRecordID)
	e.U32(uint32(len(private)))
	for _, rec := range private {
		e.U64(rec.ID).Rect(rec.Region)
	}

	e.U32(uint32(len(s.cont.queries)))
	for _, id := range sortedIDs(s.cont.queries) {
		e.U64(id).Rect(s.cont.queries[id].query)
	}

	e.U32(uint32(len(s.contPriv.queries)))
	for _, id := range sortedIDs(s.contPriv.queries) {
		q := s.contPriv.queries[id]
		e.U64(id).Rect(q.region).F64(q.radius)
	}
	s.mu.RUnlock()

	if _, err := w.Write(e.Bytes()); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	s.met.snapshotsTaken.Inc()
	return nil
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

// Restore replaces the server's state with a snapshot previously written
// by Snapshot. Every record passes the admission check its live write
// path applies, and every section count is bounded by the bytes that
// follow it. On error the server is left unchanged.
func (s *Server) Restore(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err == nil {
		err = s.restore(buf)
	}
	if err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	return nil
}

// restore decodes a whole snapshot into fresh structures and swaps them in.
func (s *Server) restore(buf []byte) error {
	d := codec.MakeDecoder(buf, nil)
	if m := d.U32(); d.Err() == nil && m != snapshotMagic {
		return fmt.Errorf("bad magic %q", buf[:4])
	}
	if v := d.U16(); d.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("unsupported version %d", v)
	}

	stationary := make([]PublicObject, d.Count(int(d.U32()), 8+2+16))
	for i := range stationary {
		stationary[i] = PublicObject{ID: d.U64(), Class: d.Str(), Loc: d.Point()}
	}
	if d.Err() != nil {
		return d.Err()
	}
	if err := ValidateStationary(s.world, stationary); err != nil {
		return err
	}
	st := newStationaryStore(stationary)
	moving, err := grid.New(s.world, movingGridCols, movingGridRows)
	if err != nil {
		return err
	}
	// The remaining sections' records have fixed sizes, so once Count
	// admits a section no read inside it can fail.
	for n := d.Count(int(d.U32()), 8+16); n > 0; n-- {
		id, loc := d.U64(), d.Point()
		if err := checkMoving(s.world, id, loc); err != nil {
			return err
		}
		moving.Upsert(id, loc)
	}
	privIdx, err := regidx.New(s.world, 32, 32)
	if err != nil {
		return err
	}
	for n := d.Count(int(d.U32()), 8+32); n > 0; n-- {
		id, region := d.U64(), d.Rect()
		if err := checkPrivate(s.world, id, region); err != nil {
			return err
		}
		if err := privIdx.Upsert(id, region); err != nil {
			return err
		}
	}
	// The continuous engines, their query indexes included, are rebuilt
	// from the data rather than stored.
	cont := newContinuousEngine(s.world)
	for n := d.Count(int(d.U32()), 8+32); n > 0; n-- {
		if err := cont.add(d.U64(), d.Rect(), privIdx); err != nil {
			return err
		}
	}
	contPriv := newContPrivEngine(s.world)
	for n := d.Count(int(d.U32()), 8+32+8); n > 0; n-- {
		if err := contPriv.add(d.U64(), d.Rect(), d.F64(), moving); err != nil {
			return err
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%d bytes after the last section", d.Remaining())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Store(st)
	s.moving, s.privIdx, s.cont, s.contPriv = moving, privIdx, cont, contPriv
	s.met.restoresApplied.Inc()
	// Re-point the size gauges at the restored data set.
	s.met.privateUsers.Set(float64(s.privIdx.Len()))
	s.met.stationary.Set(float64(st.tree.Len()))
	s.met.moving.Set(float64(s.moving.Len()))
	s.met.contQueries.Set(float64(len(s.cont.queries)))
	return nil
}
