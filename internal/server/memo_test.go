package server

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// memoObjects returns n objects with ids 1..n at uniform random locations,
// their classes cycling through the given ones.
func memoObjects(src *rng.Source, n int, classes ...string) []PublicObject {
	objs := make([]PublicObject, n)
	for i := range objs {
		objs[i] = PublicObject{ID: uint64(i + 1), Class: classes[i%len(classes)], Loc: geo.Pt(src.Float64(), src.Float64())}
	}
	return objs
}

// memoAnswers is every memoized answer form for one region.
type memoAnswers struct {
	NN    PrivateNNResult
	Parts NNParts
	Range []PublicObject
}

// memoQuery asks s every memoized form, with Radius and Class as given.
func memoQuery(t testing.TB, s *Server, region geo.Rect, class string, radius float64, mode RangeMode) memoAnswers {
	t.Helper()
	var a memoAnswers
	var errs [3]error
	a.NN, errs[0] = s.PrivateNN(PrivateNNQuery{Region: region, Class: class})
	a.Parts, errs[1] = s.PrivateNNParts(PrivateNNQuery{Region: region, Class: class})
	a.Range, errs[2] = s.PrivateRange(PrivateRangeQuery{Region: region, Radius: radius, Class: class, Mode: mode})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// memoCounts reads the memo's hit and miss counters.
func memoCounts(s *Server) (hits, misses uint64) {
	return s.met.memoHits.Value(), s.met.memoMisses.Value()
}

// TestMemoStartsEmptyOnEveryStore checks that a memo never outlives its
// store: after LoadStationary or Restore installs objects with the same
// ids and classes at other locations, every memoized form is recomputed
// (three misses) and equals a fresh server's answer over the new objects.
// The region is chosen so that its three keys take three table positions
// in the first store, whose placement is seeded at random.
func TestMemoStartsEmptyOnEveryStore(t *testing.T) {
	src := rng.New(17)
	a, b := memoObjects(src, 400, "gas", "food"), memoObjects(src, 400, "gas", "food")
	for _, tc := range []struct {
		name    string
		replace func(s *Server) error
	}{
		{"LoadStationary", func(s *Server) error { return s.LoadStationary(b) }},
		{"Restore", func(s *Server) error {
			var buf bytes.Buffer
			if err := loadedServer(t, b).Snapshot(&buf); err != nil {
				return err
			}
			return s.Restore(&buf)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := loadedServer(t, a)
			region := geo.R(0.4, 0.4, 0.5, 0.5)
			for st := s.stationary(); ; region.Max.X += 1e-3 {
				var at [3]int
				for k, kind := range []memoKind{memoNN, memoNNParts, memoRange} {
					key := st.memoKey(kind, region, "gas", 0.05, RangeRounded)
					at[k] = st.memo.index(&key)
				}
				if at[0] != at[1] && at[1] != at[2] && at[0] != at[2] {
					break
				}
			}
			ask := func(s *Server) memoAnswers { return memoQuery(t, s, region, "gas", 0.05, RangeRounded) }
			wantA, wantB := ask(loadedServer(t, a)), ask(loadedServer(t, b))
			if reflect.DeepEqual(wantA, wantB) {
				t.Fatal("fixture: the two object sets give the same answers")
			}
			for i := 0; i < 2; i++ {
				if got := ask(s); !reflect.DeepEqual(got, wantA) {
					t.Fatalf("call %d before the swap: %+v, want %+v", i, got, wantA)
				}
			}
			if hits, misses := memoCounts(s); hits != 3 || misses != 3 {
				t.Fatalf("before the swap: %d hits, %d misses, want 3 and 3", hits, misses)
			}
			if err := tc.replace(s); err != nil {
				t.Fatal(err)
			}
			if got := ask(s); !reflect.DeepEqual(got, wantB) {
				t.Fatalf("after the swap: %+v, want the new store's %+v", got, wantB)
			}
			if hits, misses := memoCounts(s); hits != 3 || misses != 6 {
				t.Fatalf("after the swap: %d hits, %d misses, want 3 and 6", hits, misses)
			}
		})
	}
}

// TestMemoUnfilteredRangeSeesMovingUpdates checks that a range query with
// Class == "", which reads the moving grid, is never served from the memo:
// each call sees the moving update before it.
func TestMemoUnfilteredRangeSeesMovingUpdates(t *testing.T) {
	s := loadedServer(t, memoObjects(rng.New(3), 300, "gas"))
	q := PrivateRangeQuery{Region: geo.R(0.2, 0.2, 0.3, 0.3), Radius: 0.02}
	ask := func() []PublicObject {
		t.Helper()
		out, err := s.PrivateRange(q)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := ask()
	car := PublicObject{ID: 9001, Loc: geo.Pt(0.25, 0.25)}
	if err := s.UpdateMoving(car.ID, car.Loc); err != nil {
		t.Fatal(err)
	}
	in := ask()
	if len(in) != len(base)+1 || !reflect.DeepEqual(in, mergeSorted(base, []PublicObject{car})) {
		t.Fatalf("after moving in: %d candidates, want the %d before plus the moving object", len(in), len(base))
	}
	if err := s.UpdateMoving(car.ID, geo.Pt(0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	if got := ask(); !reflect.DeepEqual(got, base) {
		t.Fatalf("after moving out: %d candidates, want the %d before", len(got), len(base))
	}
	if err := s.UpdateMoving(car.ID, car.Loc); err != nil {
		t.Fatal(err)
	}
	s.RemoveMoving(car.ID)
	if got := ask(); !reflect.DeepEqual(got, base) {
		t.Fatalf("after removal: %d candidates, want the %d before", len(got), len(base))
	}
	if hits, misses := memoCounts(s); hits != 0 || misses != 0 {
		t.Fatalf("unfiltered ranges touched the memo: %d hits, %d misses", hits, misses)
	}
}

// TestMemoHitEqualsFreshMiss asks a warm server random repeats from a
// small pool of regions, classes (one no object has, and "" — which the
// NN forms memoize and the range form does not), radii and both range
// modes, and checks every answer bit for bit against a fresh server's
// kernel. A store of one class keys "" and that class alike, so that store
// is covered too. Every answer handed out is then scribbled over, so a hit
// that aliased memo state would fail a later comparison.
func TestMemoHitEqualsFreshMiss(t *testing.T) {
	for _, classes := range [][]string{{"gas", "food"}, {"gas"}} {
		t.Run(fmt.Sprintf("classes=%d", len(classes)), func(t *testing.T) {
			src := rng.New(uint64(40 + len(classes)))
			objs := memoObjects(src, 300, classes...)
			s := loadedServer(t, objs)
			var regions []geo.Rect
			for i := 0; i < 6; i++ {
				c := geo.Pt(src.Float64(), src.Float64())
				regions = append(regions, geo.RectAround(c, 0.01+0.1*src.Float64()).Clip(world))
			}
			regions = append(regions, geo.R(0.5, 0.5, 0.5, 0.5), world)
			queryClasses := []string{"", "gas", "food", "none"}
			for i := 0; i < 200; i++ {
				region := regions[src.Intn(len(regions))]
				class := queryClasses[src.Intn(len(queryClasses))]
				radius := []float64{0, 0.01, 0.05}[src.Intn(3)]
				mode := RangeMode(src.Intn(2))
				got := memoQuery(t, s, region, class, radius, mode)
				want := memoQuery(t, loadedServer(t, objs), region, class, radius, mode)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d (%v, class %q, radius %g, %v): memo %+v, fresh %+v", i, region, class, radius, mode, got, want)
				}
				for _, objs := range [][]PublicObject{got.NN.Candidates, got.Parts.Candidates, got.Range} {
					for k := range objs {
						objs[k] = PublicObject{ID: 1 << 62, Class: "scribbled"}
					}
				}
			}
			hits, misses := memoCounts(s)
			if hits < 200 {
				t.Errorf("%d hits and %d misses over 200 repeats of a small pool: the memo is not serving", hits, misses)
			}
		})
	}
}

// collidingRegions returns two regions whose NN keys share a table
// position in st's memo.
func collidingRegions(t *testing.T, st *stationaryStore) (geo.Rect, geo.Rect) {
	t.Helper()
	key := func(r geo.Rect) memoKey { return st.memoKey(memoNN, r, "", 0, 0) }
	a := geo.R(0.3, 0.3, 0.4, 0.4)
	ka := key(a)
	for i := 1; i < 100*memoSize; i++ {
		d := float64(i) * 1e-6
		b := geo.R(0.3+d, 0.3, 0.4+d, 0.4)
		if kb := key(b); st.memo.index(&kb) == st.memo.index(&ka) {
			return a, b
		}
	}
	t.Fatal("no colliding region found")
	return geo.Rect{}, geo.Rect{}
}

// TestMemoCollidingKeys checks the direct-mapped table's eviction: two
// keys at one position evict each other, and each answer still equals a
// fresh server's.
func TestMemoCollidingKeys(t *testing.T) {
	objs := memoObjects(rng.New(9), 300, "gas")
	s := loadedServer(t, objs)
	a, b := collidingRegions(t, s.stationary())
	for i, step := range []struct {
		region       geo.Rect
		hits, misses uint64
	}{
		{a, 0, 1}, {a, 1, 1}, {b, 1, 2}, {b, 2, 2}, {a, 2, 3}, {a, 3, 3},
	} {
		q := PrivateNNQuery{Region: step.region}
		got, err := s.PrivateNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := loadedServer(t, objs).PrivateNN(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %+v, want %+v", i, got, want)
		}
		if hits, misses := memoCounts(s); hits != step.hits || misses != step.misses {
			t.Fatalf("step %d: %d hits, %d misses, want %d and %d", i, hits, misses, step.hits, step.misses)
		}
	}
}

// TestMemoStressUnderLoads runs hits (a small hot pool), misses (a fresh
// region per call) and colliding keys (a pool of twice the table's size,
// so every store's table has positions several keys share) from several
// goroutines while another swaps two stores in and out with
// LoadStationary. Every answer must be the answer of one of the two
// stores, as a server that only ever holds that store gives it. Run under
// -race it also checks the lock-free table.
func TestMemoStressUnderLoads(t *testing.T) {
	src := rng.New(77)
	sets := [2][]PublicObject{memoObjects(src, 300, "gas", "food"), memoObjects(src, 300, "gas", "food")}
	refs := [2]*Server{loadedServer(t, sets[0]), loadedServer(t, sets[1])}
	s := loadedServer(t, sets[0])
	hot := make([]geo.Rect, 8)
	for i := range hot {
		hot[i] = geo.RectAround(geo.Pt(src.Float64(), src.Float64()), 0.05).Clip(world)
	}
	colliding := make([]geo.Rect, 2*memoSize)
	for i := range colliding {
		colliding[i] = geo.RectAround(geo.Pt(src.Float64(), src.Float64()), 0.02).Clip(world)
	}
	const workers, ops = 4, 150
	var wg, qwg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.LoadStationary(sets[k%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			src := rng.New(uint64(w + 1))
			for op := 0; op < ops; op++ {
				var region geo.Rect
				switch op % 3 {
				case 0:
					region = hot[src.Intn(len(hot))]
				case 1:
					region = geo.RectAround(geo.Pt(src.Float64(), src.Float64()), 0.01+0.05*src.Float64()).Clip(world)
				default:
					region = colliding[src.Intn(len(colliding))]
				}
				class := []string{"", "gas"}[src.Intn(2)]
				mode := RangeMode(src.Intn(2))
				got := memoQuery(t, s, region, class, 0.03, mode)
				// Each form picks up the store on its own, so each may
				// come from either set.
				var want [2]memoAnswers
				for k := range refs {
					want[k] = memoQuery(t, refs[k], region, class, 0.03, mode)
				}
				for _, ok := range []bool{
					reflect.DeepEqual(got.NN, want[0].NN) || reflect.DeepEqual(got.NN, want[1].NN),
					reflect.DeepEqual(got.Parts, want[0].Parts) || reflect.DeepEqual(got.Parts, want[1].Parts),
					class == "" || reflect.DeepEqual(got.Range, want[0].Range) || reflect.DeepEqual(got.Range, want[1].Range),
				} {
					if !ok {
						t.Errorf("worker %d op %d (%v, class %q): an answer of neither store", w, op, region, class)
						return
					}
				}
			}
		}(w)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
	if hits, misses := memoCounts(s); hits == 0 || misses == 0 {
		t.Errorf("%d hits, %d misses: the stress did not reach both paths", hits, misses)
	}
	if m := &s.stationary().memo; m.held.Load() != storedSlots(m) {
		t.Errorf("the budget counts %d slots, the table holds %d", m.held.Load(), storedSlots(m))
	}
}

// storedSlots sums the slots of the entries in m's table.
func storedSlots(m *answerMemo) int64 {
	var n int64
	for i := range m.table {
		if e := m.table[i].Load(); e != nil {
			n += int64(len(e.slots))
		}
	}
	return n
}

// TestMemoBudget checks the slot budget: an entry that would take the
// table past memoMaxSlots is not stored, a put first returns the slots of
// what its position held (so a full memo still turns over), and the
// budget's count is always the slots the table holds.
func TestMemoBudget(t *testing.T) {
	var m answerMemo
	key := func(i int) memoKey {
		return memoKey{kind: memoNN, region: [4]uint64{math.Float64bits(float64(i))}}
	}
	a := key(0)
	var b, c memoKey // b at another position than a, c at a's
	for i, haveB, haveC := 1, false, false; !haveB || !haveC; i++ {
		k := key(i)
		if m.index(&k) == m.index(&a) {
			c, haveC = k, true
		} else {
			b, haveB = k, true
		}
	}
	big := make([]uint64, memoMaxSlots/2+1) // shared: entries are read-only
	for i, step := range []struct {
		put     memoKey
		slots   []uint64
		held    int64
		in, out []memoKey
	}{
		{a, big, int64(len(big)), []memoKey{a}, nil},
		{b, big, int64(len(big)), []memoKey{a}, []memoKey{b}},    // past the budget
		{c, big, int64(len(big)), []memoKey{c}, []memoKey{a, b}}, // fits once a is out
		{c, []uint64{1, 2, 3}, 3, []memoKey{c}, []memoKey{a, b}},
		{b, big, int64(len(big)) + 3, []memoKey{b, c}, []memoKey{a}},
	} {
		m.put(&memoEntry{key: step.put, slots: step.slots})
		if got := m.held.Load(); got != step.held || got != storedSlots(&m) {
			t.Fatalf("step %d: budget counts %d slots, table holds %d, want %d", i, got, storedSlots(&m), step.held)
		}
		for _, k := range step.in {
			if m.get(k) == nil {
				t.Errorf("step %d: key %v not memoized", i, k.region[0])
			}
		}
		for _, k := range step.out {
			if m.get(k) != nil {
				t.Errorf("step %d: key %v memoized", i, k.region[0])
			}
		}
	}
}
