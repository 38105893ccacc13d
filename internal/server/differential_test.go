package server

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// The differential suite proves BatchQuery equivalent to the sequential
// per-query path: for every seed in
// testdata/diff_seeds.txt, one deterministic data set and query mix is
// evaluated through the public per-query methods (the reference) and
// through BatchQuery at several worker counts — including the degenerate
// workers=1 plain loop — and every per-entry result, error outcome
// included, must match bit for bit.

// diffWorkers returns the largest worker count exercised. The CI matrix
// overrides it via SRV_TEST_WORKERS.
func diffWorkers(t testing.TB) int {
	t.Helper()
	s := os.Getenv("SRV_TEST_WORKERS")
	if s == "" {
		return 8
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > 64 {
		t.Fatalf("bad SRV_TEST_WORKERS=%q", s)
	}
	return n
}

// diffSeeds loads the committed seed table.
func diffSeeds(t testing.TB) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "diff_seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []uint64
	for ln, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		s, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("diff_seeds.txt:%d: %v", ln+1, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("diff_seeds.txt holds no seeds")
	}
	return seeds
}

var diffClasses = []string{"", "gas", "bank"}

// diffServer is a server plus the stationary objects it should hold, kept
// by the test: every load goes to both, so the reference model reads this
// list and never the server's own store.
type diffServer struct {
	*Server
	stationary map[uint64]PublicObject
}

func (d *diffServer) load(t testing.TB, objs []PublicObject) {
	t.Helper()
	if err := d.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}
	clear(d.stationary)
	for _, o := range objs {
		d.stationary[o.ID] = o
	}
}

// diffObject places a stationary object of a random class.
func diffObject(src *rng.Source, id uint64) PublicObject {
	return PublicObject{
		ID:    id,
		Class: diffClasses[1+src.Intn(len(diffClasses)-1)],
		Loc:   geo.Pt(src.Float64(), src.Float64()),
	}
}

// shuffled returns objs in a random order.
func shuffled(src *rng.Source, objs []PublicObject) []PublicObject {
	perm := make([]int, len(objs))
	src.Perm(perm)
	out := make([]PublicObject, len(objs))
	for i, j := range perm {
		out[i] = objs[j]
	}
	return out
}

// churn reloads a mutated copy of the held stationary set, in shuffled ID
// order: about a tenth of the objects dropped, a tenth moved (and
// reclassed at random), and 40 new IDs added above the rest. A query
// between two churns must see only the second load.
func (d *diffServer) churn(t testing.TB, src *rng.Source) {
	t.Helper()
	objs := make([]PublicObject, 0, len(d.stationary))
	for _, o := range d.stationary {
		objs = append(objs, o)
	}
	SortObjects(objs)
	next := objs[len(objs)-1].ID
	kept := objs[:0]
	for _, o := range objs {
		switch src.Intn(10) {
		case 0:
			continue
		case 1:
			o = diffObject(src, o.ID)
		}
		kept = append(kept, o)
	}
	for i := 0; i < 40; i++ {
		next++
		kept = append(kept, diffObject(src, next))
	}
	d.load(t, shuffled(src, kept))
}

// buildDiffServer loads one deterministic data set for a seed: stationary
// objects of several classes, bulk-loaded in shuffled ID order, moving
// objects, and private users.
func buildDiffServer(t testing.TB, seed uint64) *diffServer {
	t.Helper()
	d := &diffServer{Server: newServer(t), stationary: map[uint64]PublicObject{}}
	src := rng.New(seed)
	objs := make([]PublicObject, 0, 600)
	for i := 0; i < 600; i++ {
		objs = append(objs, diffObject(src, uint64(i+1)))
	}
	d.load(t, shuffled(src, objs))
	s := d.Server
	for i := 0; i < 80; i++ {
		if err := s.UpdateMoving(uint64(5000+i), geo.Pt(src.Float64(), src.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		reg := geo.RectAround(c, 0.005+0.06*src.Float64()).Clip(world)
		if err := s.UpdatePrivate(uint64(i+1), reg); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// buildDiffBatch generates one deterministic mixed query batch: clustered
// rectangles (so entries overlap), all three query kinds,
// both range modes, class filters, and a sprinkling of invalid entries
// whose typed errors must also match the sequential path.
func buildDiffBatch(src *rng.Source, n int) []BatchEntry {
	// Cluster centers pull rectangles together so entries overlap.
	centers := make([]geo.Point, 6)
	for i := range centers {
		centers[i] = geo.Pt(0.15+0.7*src.Float64(), 0.15+0.7*src.Float64())
	}
	entries := make([]BatchEntry, 0, n)
	for i := 0; i < n; i++ {
		c := centers[src.Intn(len(centers))]
		p := world.ClampPoint(geo.Pt(c.X+src.Range(-0.1, 0.1), c.Y+src.Range(-0.1, 0.1)))
		r := geo.RectAround(p, 0.01+0.08*src.Float64()).Clip(world)
		var e BatchEntry
		switch src.Intn(10) {
		case 0, 1, 2, 3: // private range
			e.Kind = BatchPrivateRange
			e.Range = PrivateRangeQuery{
				Region: r,
				Radius: 0.05 * src.Float64(),
				Class:  diffClasses[src.Intn(len(diffClasses))],
			}
			if src.Intn(2) == 0 {
				e.Range.Mode = RangeMBR
			}
		case 4, 5, 6: // public count
			e.Kind = BatchPublicCount
			e.Count = PublicRangeCountQuery{Query: r}
		case 7, 8: // private NN
			e.Kind = BatchPrivateNN
			e.NN = PrivateNNQuery{Region: r, Class: diffClasses[src.Intn(len(diffClasses))]}
		default: // invalid entries: the error path must match too
			switch src.Intn(3) {
			case 0:
				e.Kind = BatchPrivateRange
				e.Range = PrivateRangeQuery{Region: geo.Rect{Min: r.Max, Max: r.Min}, Radius: 0.01}
			case 1:
				e.Kind = BatchPrivateRange
				e.Range = PrivateRangeQuery{Region: r, Radius: -1}
			default:
				e.Kind = BatchPublicCount
				e.Count = PublicRangeCountQuery{Query: geo.Rect{Min: r.Max, Max: r.Min}}
			}
		}
		entries = append(entries, e)
	}
	return entries
}

// TestDifferentialBatchEqualsSequential is the core equivalence proof: all
// committed seeds × worker counts {1, 2, max}, batch vs sequential, with
// the stationary set churned between rounds.
func TestDifferentialBatchEqualsSequential(t *testing.T) {
	maxW := diffWorkers(t)
	workerCounts := []int{1, 2, maxW}
	for _, seed := range diffSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := buildDiffServer(t, seed)
			src := rng.New(seed ^ 0xBA7C4)
			for round := 0; round < 3; round++ {
				if round > 0 {
					s.churn(t, src)
				}
				entries := buildDiffBatch(src, 40)
				want := sequentialBatch(s.Server, entries)
				for _, w := range workerCounts {
					s.queryWorkers = w
					assertItemsEqual(t, s.BatchQuery(entries).Items, want)
				}
			}
		})
	}
}

// TestDifferentialAcrossGoMaxProcs re-proves batch ≡ sequential with the
// scheduler pinned to GOMAXPROCS 1 and 4 — the two pinned points of the
// bench matrix (E17). The worker fan-out must be correct whether goroutines
// truly interleave on one P or run on four; the subtests are deliberately
// serial because GOMAXPROCS is process-global.
func TestDifferentialAcrossGoMaxProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			s := buildDiffServer(t, 7)
			s.queryWorkers = 4
			src := rng.New(0xD1FF)
			for round := 0; round < 3; round++ {
				entries := buildDiffBatch(src, 40)
				want := sequentialBatch(s.Server, entries)
				res := s.BatchQuery(entries)
				assertItemsEqual(t, res.Items, want)
			}
		})
	}
}

// TestDifferentialBatchSplitInvariance: splitting a batch into chunks must
// not change any per-entry answer.
func TestDifferentialBatchSplitInvariance(t *testing.T) {
	s := buildDiffServer(t, 42)
	s.queryWorkers = diffWorkers(t)
	entries := buildDiffBatch(rng.New(0xC0FFEE), 60)
	whole := s.BatchQuery(entries)
	var split []BatchItemResult
	for off := 0; off < len(entries); off += 7 {
		end := off + 7
		if end > len(entries) {
			end = len(entries)
		}
		part := s.BatchQuery(entries[off:end])
		// Re-base per-entry error indices to the whole-batch frame.
		for i := range part.Items {
			if bee, ok := part.Items[i].Err.(*BatchEntryError); ok {
				part.Items[i].Err = &BatchEntryError{Index: off + bee.Index, Kind: bee.Kind, Err: bee.Err}
			}
		}
		split = append(split, part.Items...)
	}
	assertItemsEqual(t, split, whole.Items)
}
