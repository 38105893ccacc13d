package anonymizer

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// TestSpaceDependentStoresNoExactLocations is invariant I9: between
// requests nothing an Anonymizer reaches holds a coordinate a user sent.
// A reflective walk follows every pointer, interface, slice, array, map
// and struct field, unexported ones included, and fails on any float64
// equal to a sent X or Y. It skips only funcs and chans, whose contents
// reflection cannot see. It runs after single updates and query cloaks,
// after batches, and after forwards spilled to the replay queue, for every
// algorithm with the incremental cache off and on.
func TestSpaceDependentStoresNoExactLocations(t *testing.T) {
	const users = 200
	for _, alg := range []Algorithm{AlgQuadtree, AlgGrid, AlgGridML} {
		for _, inc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/incremental=%v", alg, inc), func(t *testing.T) {
				db := newFlakyForwarder()
				a := newAnon(t, Config{Algorithm: alg, Incremental: inc, Shards: 4, BatchWorkers: 2,
					Forward: db.forward, ForwardQueue: users, ForwardRetryBase: time.Hour})
				src := rng.New(uint64(alg)*2 + 1)
				sent := make(map[float64]bool)
				at := func() geo.Point {
					p := geo.Pt(src.Float64(), src.Float64())
					sent[p.X], sent[p.Y] = true, true
					return p
				}
				for id := uint64(1); id <= users; id++ {
					if err := a.Register(id, privacy.Constant(privacy.Requirement{K: 1 + int(id%9)})); err != nil {
						t.Fatal(err)
					}
				}
				for id := uint64(1); id <= users; id++ {
					if _, err := a.Update(id, at()); err != nil {
						t.Fatal(err)
					}
					if id%4 == 0 {
						if _, err := a.CloakQuery(id, at()); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkNoSentCoordinate(t, a, sent, "single updates")

				batch := func() []cloak.Request {
					reqs := make([]cloak.Request, 0, users)
					for id := uint64(1); id <= users; id += 2 {
						p := at()
						reqs = append(reqs, cloak.Request{ID: id, Loc: p}, cloak.Request{ID: id + 1, Loc: p})
					}
					return reqs
				}
				a.BatchUpdate(batch())
				a.BatchUpdate(batch())
				checkNoSentCoordinate(t, a, sent, "batches")

				db.setDown(true)
				if _, err := a.Update(1, at()); err != nil {
					t.Fatal(err)
				}
				a.BatchUpdate(batch())
				a.Close() // stops the replay loop; the queue keeps its regions
				if a.Stats().QueueDepth == 0 {
					t.Fatal("no forward was spilled")
				}
				checkNoSentCoordinate(t, a, sent, "spilled forwards")
			})
		}
	}
}

// checkNoSentCoordinate fails the test for every float64 reachable from a
// that equals a sent coordinate, naming the path to it.
func checkNoSentCoordinate(t *testing.T, a *Anonymizer, sent map[float64]bool, after string) {
	t.Helper()
	w := coordWalk{sent: sent, seen: make(map[coordVisit]bool)}
	w.walk(reflect.ValueOf(a), "a")
	for _, p := range w.found {
		t.Errorf("after %s: %s holds a coordinate a user sent", after, p)
	}
	if len(w.opaque) > 0 {
		t.Fatalf("after %s: the walk cannot see behind %v", after, w.opaque)
	}
}

type coordVisit struct {
	ptr uintptr
	typ reflect.Type
}

// coordWalk collects the paths of the sent float64s a value reaches.
type coordWalk struct {
	sent   map[float64]bool
	seen   map[coordVisit]bool
	found  []string
	opaque []string // unsafe.Pointers, whose targets have no type to walk
}

func (w *coordWalk) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Float64:
		if w.sent[v.Float()] {
			w.found = append(w.found, path)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		k := coordVisit{v.Pointer(), v.Type()}
		if w.seen[k] {
			return
		}
		w.seen[k] = true
		w.walk(v.Elem(), path)
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice, reflect.Array:
		if plainScalar(v.Type().Elem().Kind()) {
			return // e.g. the pyramid's counters: no float64 can hide there
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key(), fmt.Sprintf("%s{key %v}", path, it.Key()))
			w.walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
		}
	case reflect.UnsafePointer:
		if v.Pointer() != 0 {
			w.opaque = append(w.opaque, path)
		}
	}
}

// plainScalar reports whether a value of kind k is a number, bool or
// string other than a float64.
func plainScalar(k reflect.Kind) bool {
	return k >= reflect.Bool && k <= reflect.Uintptr || k == reflect.Float32 || k == reflect.String
}
