package server

import (
	"context"

	"repro/internal/geo"
	"repro/internal/trace"
)

// The context-taking entry points the wire handler calls record one lbs_*
// span per request under the caller's trace and link the latency
// histograms to it via bucket exemplars. The query forms live next to
// their plain forms (privatequery.go, publicquery.go, batch.go).

// ctxTraceID returns the sampled trace id carried by ctx, 0 when none.
func ctxTraceID(ctx context.Context) uint64 {
	if sc, ok := trace.FromContext(ctx); ok && sc.Sampled() {
		return sc.TraceID
	}
	return 0
}

// UpdatePrivateCtx is UpdatePrivate under a context (trace).
func (s *Server) UpdatePrivateCtx(ctx context.Context, id uint64, region geo.Rect) error {
	sp, _ := trace.Start(ctx, s.tracer, "lbs_update_private")
	err := s.UpdatePrivate(id, region)
	sp.End()
	return err
}
