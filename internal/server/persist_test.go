package server

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/rng"
)

// A class must survive the snapshot's u16 length prefix: the longest one
// that fits round-trips and still matches its query, and a longer one is
// refused at admission instead of being cut on the way out.
func TestClassLengthSurvivesSnapshot(t *testing.T) {
	s := newServer(t)
	long := PublicObject{ID: 1, Loc: geo.Pt(0.5, 0.5), Class: strings.Repeat("c", 70000)}
	if err := s.LoadStationary([]PublicObject{long}); err == nil {
		t.Fatal("LoadStationary accepted a 70000-byte class")
	}
	fits := PublicObject{ID: 2, Loc: geo.Pt(0.5, 0.5), Class: strings.Repeat("c", 0xffff)}
	if err := s.LoadStationary([]PublicObject{fits}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newServer(t)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	q := PrivateRangeQuery{Region: world, Class: fits.Class}
	for name, srv := range map[string]*Server{"before": s, "after": restored} {
		got, err := srv.PrivateRange(q)
		if err != nil || len(got) != 1 || got[0].ID != fits.ID {
			t.Fatalf("%s the round trip: PrivateRange = %v, %v; want object %d", name, got, err, fits.ID)
		}
	}
}

// buildLoadedServer populates a server with all kinds of state.
func buildLoadedServer(t testing.TB) *Server {
	t.Helper()
	s := newServer(t)
	loadObjects(t, s, 500, "gas", 1)
	src := rng.New(2)
	for i := 0; i < 200; i++ {
		if err := s.UpdateMoving(uint64(i+1), geo.Pt(src.Float64(), src.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		if err := s.UpdatePrivate(uint64(i+1), geo.RectAround(c, 0.03).Clip(world)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RegisterContinuousCount(geo.R(0.2, 0.2, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterContinuousCount(geo.R(0.5, 0.1, 0.9, 0.4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterContinuousPrivateRange(geo.R(0.4, 0.4, 0.5, 0.5), 0.05); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := buildLoadedServer(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := newServer(t)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	if restored.StationaryCount() != orig.StationaryCount() {
		t.Errorf("stationary: %d vs %d", restored.StationaryCount(), orig.StationaryCount())
	}
	if restored.MovingCount() != orig.MovingCount() {
		t.Errorf("moving: %d vs %d", restored.MovingCount(), orig.MovingCount())
	}
	if restored.PrivateUserCount() != orig.PrivateUserCount() {
		t.Errorf("private: %d vs %d", restored.PrivateUserCount(), orig.PrivateUserCount())
	}
	if restored.ContinuousQueryCount() != orig.ContinuousQueryCount() {
		t.Errorf("cont queries: %d vs %d", restored.ContinuousQueryCount(), orig.ContinuousQueryCount())
	}
	if restored.ContinuousPrivateQueryCount() != orig.ContinuousPrivateQueryCount() {
		t.Errorf("cont private queries: %d vs %d",
			restored.ContinuousPrivateQueryCount(), orig.ContinuousPrivateQueryCount())
	}

	// Every private region survives byte-exact.
	for _, rec := range orig.privateSnapshot() {
		got, ok := restored.PrivateRegion(rec.ID)
		if !ok || !got.Eq(rec.Region) {
			t.Fatalf("private region %d lost or changed", rec.ID)
		}
	}

	// Queries answer identically.
	q := PrivateRangeQuery{Region: geo.R(0.4, 0.4, 0.5, 0.5), Radius: 0.08, Class: "gas"}
	a, err := orig.PrivateRange(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.PrivateRange(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("private range answers differ: %d vs %d", len(a), len(b))
	}
	ca, _ := orig.PublicRangeCount(PublicRangeCountQuery{Query: geo.R(0.3, 0.3, 0.7, 0.7)})
	cb, _ := restored.PublicRangeCount(PublicRangeCountQuery{Query: geo.R(0.3, 0.3, 0.7, 0.7)})
	if math.Abs(ca.Answer.Expected-cb.Answer.Expected) > 1e-9 ||
		ca.Answer.Lo != cb.Answer.Lo || ca.Answer.Hi != cb.Answer.Hi {
		t.Fatalf("public count differs: %+v vs %+v", ca.Answer, cb.Answer)
	}

	// Continuous count answers were rebuilt and match fresh evaluation.
	for id := uint64(1); id <= 2; id++ {
		ans, ok := restored.ContinuousCount(id)
		if !ok {
			t.Fatalf("continuous query %d missing after restore", id)
		}
		orig, _ := orig.ContinuousCount(id)
		if math.Abs(ans.Expected-orig.Expected) > 1e-9 || ans.Lo != orig.Lo || ans.Hi != orig.Hi {
			t.Fatalf("continuous answer differs: %+v vs %+v", ans, orig)
		}
	}

	// The restored server remains fully functional: updates feed the
	// rebuilt continuous engines.
	preAns, _ := restored.ContinuousCount(1)
	if err := restored.UpdatePrivate(9999, geo.R(0.3, 0.3, 0.4, 0.4)); err != nil {
		t.Fatal(err)
	}
	postAns, _ := restored.ContinuousCount(1)
	if postAns.Expected <= preAns.Expected {
		t.Error("restored continuous engine did not see the new user")
	}
}

func TestSnapshotDeterministicState(t *testing.T) {
	// Snapshots write every section in ascending id order, so equal states
	// reached by different histories — and a snapshot → restore → snapshot
	// round trip — produce the same bytes, whatever order the maps,
	// region-index slots and load inputs held them in.
	region := geo.R(0.4, 0.4, 0.45, 0.45)
	a := buildLoadedServer(t)
	// Freed slots go to later, larger ids, so a's slots leave id order.
	for _, id := range []uint64{5, 17, 42} {
		a.RemovePrivate(id)
	}
	for _, id := range []uint64{1000, 999, 42} {
		if err := a.UpdatePrivate(id, region); err != nil {
			t.Fatal(err)
		}
	}
	b := buildLoadedServer(t)
	b.RemovePrivate(5)
	b.RemovePrivate(17)
	for _, id := range []uint64{42, 999, 1000} {
		if err := b.UpdatePrivate(id, region); err != nil {
			t.Fatal(err)
		}
	}
	// Both reload one mutated stationary set — objects dropped, one moved,
	// two added — fed in opposite orders, after a different interim load.
	var objs []PublicObject
	for _, o := range a.stationary().objs {
		switch o.ID {
		case 7, 499:
		case 250:
			objs = append(objs, PublicObject{ID: 250, Class: "bank", Loc: geo.Pt(0.7, 0.2)})
		default:
			objs = append(objs, o)
		}
	}
	objs = append(objs, PublicObject{ID: 1001, Class: "cafe", Loc: geo.Pt(0.1, 0.9)}, PublicObject{ID: 1000, Class: "gas", Loc: geo.Pt(0.5, 0.5)})
	reversed := slices.Clone(objs)
	slices.Reverse(reversed)
	for _, step := range []struct {
		s    *Server
		objs []PublicObject
	}{{a, objs[:100]}, {a, objs}, {b, reversed}} {
		if err := step.s.LoadStationary(step.objs); err != nil {
			t.Fatal(err)
		}
	}
	snap := func(s *Server) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bytesA := snap(a)
	if bytesB := snap(b); !bytes.Equal(bytesA, bytesB) {
		t.Errorf("equal states snapshot differently: %d vs %d bytes", len(bytesA), len(bytesB))
	}
	restored := newServer(t)
	if err := restored.Restore(bytes.NewReader(bytesA)); err != nil {
		t.Fatal(err)
	}
	if bytesR := snap(restored); !bytes.Equal(bytesA, bytesR) {
		t.Errorf("second-generation snapshot differs: %d vs %d bytes", len(bytesR), len(bytesA))
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := newServer(t)
	if err := s.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
	if err := s.Restore(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Bad version.
	bad := append([]byte("PALB"), 0xff, 0xff)
	if err := s.Restore(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated stream.
	orig := buildLoadedServer(t)
	var buf bytes.Buffer
	orig.Snapshot(&buf)
	if err := s.Restore(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// The failed restores left the server empty and usable.
	if s.StationaryCount() != 0 || s.PrivateUserCount() != 0 {
		t.Error("failed restore mutated server state")
	}
	if err := s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.2, 0.2)); err != nil {
		t.Errorf("server unusable after failed restore: %v", err)
	}
}

func TestRestoreRejectsOutOfWorldData(t *testing.T) {
	// Snapshot from a larger world cannot restore into a smaller one.
	big, err := New(Config{World: geo.R(0, 0, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.LoadStationary([]PublicObject{{ID: 1, Class: "gas", Loc: geo.Pt(5, 5)}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := big.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	small := newServer(t)
	if err := small.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("out-of-world snapshot accepted")
	}
}

// A torn (half-written) snapshot — as a crash mid-write would leave
// without the atomic rename — is rejected by Restore at every truncation
// point, with an error and no state change.
func TestRestoreRejectsTornSnapshot(t *testing.T) {
	orig := buildLoadedServer(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Sweep truncation points across the whole stream, plus the tightest
	// interesting prefixes around the header.
	cuts := []int{0, 1, 3, 4, 5, 6, 7, 9}
	for c := 10; c < len(full); c += len(full)/97 + 1 {
		cuts = append(cuts, c)
	}
	for _, c := range cuts {
		s := newServer(t)
		err := s.Restore(bytes.NewReader(full[:c]))
		if err == nil {
			t.Fatalf("torn snapshot of %d/%d bytes accepted", c, len(full))
		}
		if s.StationaryCount() != 0 || s.PrivateUserCount() != 0 {
			t.Fatalf("torn snapshot of %d bytes mutated server state", c)
		}
	}
}

// SaveSnapshot is atomic: the target is only ever a complete snapshot, no
// temp files are left behind, and a failed save preserves the old file.
func TestSaveSnapshotAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	orig := buildLoadedServer(t)
	if err := orig.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	restored := newServer(t)
	if err := restored.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if restored.PrivateUserCount() != orig.PrivateUserCount() {
		t.Fatalf("private users: %d vs %d", restored.PrivateUserCount(), orig.PrivateUserCount())
	}

	// Overwriting an existing snapshot also works and leaves exactly one
	// file in the directory — no .tmp residue.
	if err := orig.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after save: %v", names)
	}

	// A save into an unwritable directory fails without touching the old
	// snapshot.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveSnapshot(filepath.Join(dir, "missing-subdir", "state.snap")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save mutated the existing snapshot")
	}
}

// LoadSnapshot surfaces a missing file as os.IsNotExist so daemons can
// treat first boot as empty state.
func TestLoadSnapshotMissingFile(t *testing.T) {
	s := newServer(t)
	err := s.LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap"))
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want os.IsNotExist", err)
	}
}

// The snapshot format is the one the wire's codec writes, byte for byte
// the layout of snapshot version 1: the golden file was written from
// buildLoadedServer before the snapshot moved onto codec, and it both
// restores and is what the same state snapshots to today.
func TestSnapshotGoldenV1(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	snap := func(s *Server) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got := snap(buildLoadedServer(t)); !bytes.Equal(got, golden) {
		t.Errorf("buildLoadedServer snapshots to %d bytes that differ from the %d-byte golden file", len(got), len(golden))
	}
	restored := newServer(t)
	if err := restored.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if got := snap(restored); !bytes.Equal(got, golden) {
		t.Errorf("the restored golden file snapshots to %d bytes that differ from its %d", len(got), len(golden))
	}
}

// snapshotOf encodes a snapshot by hand: the header, then the five
// section counts, each followed by its records.
func snapshotOf(sections ...func(e *codec.Encoder)) []byte {
	var e codec.Encoder
	e.U32(snapshotMagic).U16(snapshotVersion)
	for _, sec := range sections {
		sec(&e)
	}
	return e.Bytes()
}

// emptySection writes a section count of zero.
func emptySection(e *codec.Encoder) { e.U32(0) }

// Restore admits a record only as its live write path would: two
// stationary objects with one id are refused, as LoadStationary refuses
// them, rather than stored as a pair whose second copy can never be
// removed.
func TestRestoreRejectsDuplicateStationaryID(t *testing.T) {
	dup := snapshotOf(func(e *codec.Encoder) {
		e.U32(2)
		e.U64(7).Str("gas").Point(geo.Pt(0.2, 0.2))
		e.U64(7).Str("gas").Point(geo.Pt(0.8, 0.8))
	}, emptySection, emptySection, emptySection, emptySection)
	s := newServer(t)
	if err := s.Restore(bytes.NewReader(dup)); err == nil {
		t.Fatalf("a snapshot with stationary id 7 twice restored; %d objects stored", s.StationaryCount())
	}
	if s.StationaryCount() != 0 {
		t.Fatalf("a refused restore left %d stationary objects", s.StationaryCount())
	}
}

// A section count is bounded by the bytes that follow it: each of the
// five counts, forged to 2^24 in an otherwise empty snapshot, fails the
// restore before anything is sized from it. Allocation is measured in
// bytes, as the least of five measurements, since other goroutines can
// only add to the process-wide counter.
func TestRestoreForgedCountsNeverSizeAnAllocation(t *testing.T) {
	names := []string{"stationary", "moving", "private", "continuous count", "continuous private"}
	for i, name := range names {
		sections := []func(*codec.Encoder){emptySection, emptySection, emptySection, emptySection, emptySection}
		sections[i] = func(e *codec.Encoder) { e.U32(1 << 24) }
		forged := snapshotOf(sections[:i+1]...)
		s := newServer(t)
		if err := s.Restore(bytes.NewReader(forged)); err == nil {
			t.Errorf("%s: a forged count restored", name)
			continue
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Restore(bytes.NewReader(forged))
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d bytes", name, least)
		if least >= 1<<20 {
			t.Errorf("%s: a forged count over a %d-byte snapshot allocated %d bytes", name, len(forged), least)
		}
	}
}

// stallWriter blocks every Write until release is closed, and closes
// entered on the first.
type stallWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// Snapshot holds the read lock only while it encodes: a writer stalled on
// the disk does not hold up a region update.
func TestSnapshotWriteHoldsNoLock(t *testing.T) {
	s := buildLoadedServer(t)
	w := &stallWriter{entered: make(chan struct{}), release: make(chan struct{})}
	snapped := make(chan error, 1)
	go func() { snapped <- s.Snapshot(w) }()
	<-w.entered
	updated := make(chan error, 1)
	go func() { updated <- s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.2, 0.2)) }()
	select {
	case err := <-updated:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(time.Second):
		t.Error("UpdatePrivate waited over 1s on a stalled snapshot write")
		defer func() { <-updated }()
	}
	close(w.release)
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
}

// FuzzRestore feeds Restore arbitrary bytes, seeded with real snapshots,
// each of which must restore to a server that snapshots to its own bytes.
// It must never panic, and any input it accepts must be a fixed point
// after one round trip: its snapshot restores, and that server snapshots
// to the same bytes.
func FuzzRestore(f *testing.F) {
	seed := func(s *Server) {
		var buf, again bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		restored := newServer(f)
		if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatal(err)
		}
		if err := restored.Snapshot(&again); err != nil || !bytes.Equal(buf.Bytes(), again.Bytes()) {
			f.Fatalf("a %d-byte snapshot restores to one of %d bytes (%v)", buf.Len(), again.Len(), err)
		}
		f.Add(buf.Bytes())
	}
	seed(newServer(f))
	seed(buildLoadedServer(f))
	for _, ds := range diffSeeds(f) {
		seed(buildDiffServer(f, ds).Server)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newServer(t)
		if s.Restore(bytes.NewReader(data)) != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Snapshot(&first); err != nil {
			t.Fatal(err)
		}
		again := newServer(t)
		if err := again.Restore(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("the snapshot of an accepted input does not restore: %v", err)
		}
		if err := again.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot → restore → snapshot changed %d bytes into %d", first.Len(), second.Len())
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	s, err := New(Config{World: world})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		s.UpdatePrivate(uint64(i+1), geo.RectAround(c, 0.02).Clip(world))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
