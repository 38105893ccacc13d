package protocol

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// TestHotPathAllocs holds the wire's allocation budgets: heap allocations
// per call on a warm, fixed fixture, which may only go down. The null
// round trip covers CallCtx, callOnce and the service's serveFrame; it is
// the benchmark's protocol.rtt_null_allocs.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	payload := make([]byte, 40)
	var frame bytes.Buffer
	if err := WriteFrame(&frame, MsgStats, payload); err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	buf := make([]byte, 0, 512)

	null, err := Serve("127.0.0.1:0", func(context.Context, byte, []byte) ([]byte, error) { return nil, nil }, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	c, err := Dial(null.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"WriteFrame", 0, func() error { return WriteFrame(io.Discard, MsgStats, payload) }},
		{"ReadFrameBuf", 0, func() (err error) {
			rd.Reset(frame.Bytes())
			_, _, buf, err = ReadFrameBuf(&rd, buf)
			return err
		}},
		{"ReadFrame", 1, func() error {
			rd.Reset(frame.Bytes())
			_, _, err := ReadFrame(&rd)
			return err
		}},
		{"CallCtx null round trip", 1, func() error {
			_, err := c.CallCtx(context.Background(), MsgStats, payload)
			return err
		}},
	}
	for _, tc := range cases {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocations per call (budget %.0f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per call, over its budget of %.0f", tc.name, allocs, tc.budget)
		}
	}
}
