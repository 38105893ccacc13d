// Package repro is a from-scratch Go reproduction of "Towards
// Privacy-Aware Location-Based Database Servers" (Mokbel, ICDE Workshops
// 2006): a Location Anonymizer that blurs exact user locations into
// k-anonymous cloaked regions under per-user temporal privacy profiles, and
// a privacy-aware location-based database server that answers private
// queries over public data and public queries over private data with
// candidate sets and probabilistic answers.
//
// The implementation lives under internal/:
//
//   - anonymizer, cloak, privacy, attack — the trusted third party, the
//     four cloaking algorithms of Figures 3–4, profiles, and the
//     reverse-engineering adversaries;
//   - server, prob — the privacy-aware query processors of Figures 5–6;
//   - rtree, grid, pyramid, geo, rng, mobility — the substrates;
//   - protocol — the wire protocol and TCP services of Figure 1;
//   - stack — the one definition of the deployment the daemons, the soak
//     and lbsbench boot.
//
// Runnable entry points: examples/* (six examples; quickstart is the place
// to start), cmd/lbsbench (the experiment harness behind EXPERIMENTS.md),
// cmd/anonymizerd, cmd/lbsd and cmd/lbsrouter (the networked deployment),
// cmd/lbssoak (the traffic driver: scenario catalog and SLO gates, against
// a booted stack or running daemons) and cmd/lbsgen (workload traces). The benchmarks in bench_test.go
// mirror the experiment suite one-to-one.
package repro
