package protocol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/obs"
)

// The MsgMetrics response carries a full registry snapshot — counters,
// gauges and histogram snapshots — so load tools print percentile tables
// from live daemons without scraping HTTP. Layout per series:
//
//	Str name, Str help, U8 kind, U16 nlabels { Str key, Str value },
//	then kind-specific:
//	  counter/gauge: F64 value
//	  histogram:     U32 nbounds { F64 bound }, (nbounds+1) × U64 count, F64 sum,
//	                 U8 hasExemplars, if 1: (nbounds+1) × U64 trace id

// encodeMetrics flattens exported snapshots into a payload.
func encodeMetrics(series []obs.MetricSnapshot) []byte {
	var e codec.Encoder
	e.U32(uint32(len(series)))
	for _, s := range series {
		e.Str(s.Name).Str(s.Help).U8(byte(s.Kind))
		e.U16(uint16(len(s.Labels)))
		for _, l := range s.Labels {
			e.Str(l.Key).Str(l.Value)
		}
		switch s.Kind {
		case obs.KindCounter, obs.KindGauge:
			e.F64(s.Value)
		case obs.KindHistogram:
			e.U32(uint32(len(s.Hist.Bounds)))
			for _, b := range s.Hist.Bounds {
				e.F64(b)
			}
			for _, c := range s.Hist.Counts {
				e.U64(c)
			}
			e.F64(s.Hist.Sum)
			if len(s.Hist.Exemplars) == len(s.Hist.Counts) {
				e.U8(1)
				for _, t := range s.Hist.Exemplars {
					e.U64(t)
				}
			} else {
				e.U8(0)
			}
		}
	}
	return e.Bytes()
}

// DecodeMetrics parses a MsgMetrics response payload.
func DecodeMetrics(payload []byte) ([]obs.MetricSnapshot, error) {
	d := codec.NewDecoder(payload)
	// Each series needs ≥ 8 bytes on the wire (two empty strings, kind,
	// label count and a value byte short of that, but 8 is a safe floor).
	n := d.Count(int(d.U32()), 8)
	out := make([]obs.MetricSnapshot, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		s := obs.MetricSnapshot{
			Name: d.Str(),
			Help: d.Str(),
			Kind: obs.Kind(d.U8()),
		}
		if nl := d.Count(int(d.U16()), 4); nl > 0 {
			s.Labels = make([]obs.Label, 0, nl)
			for j := 0; j < nl && d.Err() == nil; j++ {
				s.Labels = append(s.Labels, obs.Label{Key: d.Str(), Value: d.Str()})
			}
		}
		switch s.Kind {
		case obs.KindCounter, obs.KindGauge:
			s.Value = d.F64()
		case obs.KindHistogram:
			nb := d.Count(int(d.U32()), 8)
			s.Hist.Bounds = make([]float64, 0, nb)
			for j := 0; j < nb; j++ {
				s.Hist.Bounds = append(s.Hist.Bounds, d.F64())
			}
			nc := d.Count(nb+1, 8)
			s.Hist.Counts = make([]uint64, 0, nc)
			for j := 0; j < nc; j++ {
				s.Hist.Counts = append(s.Hist.Counts, d.U64())
			}
			s.Hist.Sum = d.F64()
			if d.U8() == 1 {
				nc = d.Count(nc, 8)
				s.Hist.Exemplars = make([]uint64, 0, nc)
				for j := 0; j < nc; j++ {
					s.Hist.Exemplars = append(s.Hist.Exemplars, d.U64())
				}
			}
		default:
			return nil, fmt.Errorf("protocol: unknown metric kind %d", s.Kind)
		}
		if d.Err() == nil {
			out = append(out, s)
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return out, nil
}

// Metrics fetches the peer daemon's full metric snapshot. The peer must be
// running an instrumented service (WithMetrics); otherwise the call fails
// with the peer's unknown-message error.
func (c *Client) Metrics() ([]obs.MetricSnapshot, error) {
	resp, err := c.Call(MsgMetrics, nil)
	if err != nil {
		return nil, err
	}
	return DecodeMetrics(resp)
}

// Metrics fetches the anonymizer daemon's metric snapshot.
func (ac *AnonymizerClient) Metrics() ([]obs.MetricSnapshot, error) { return ac.c.Metrics() }

// Metrics fetches the database daemon's metric snapshot.
func (dc *DatabaseClient) Metrics() ([]obs.MetricSnapshot, error) { return dc.c.Metrics() }
