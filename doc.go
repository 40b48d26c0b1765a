// Package vbundle is a from-scratch Go reproduction of "v-Bundle: Flexible
// Group Resource Offerings in Clouds" (Hu, Ryu, Da Silva, Schwan — IEEE
// ICDCS 2012): a decentralized datacenter resource scheduler that places a
// customer's chatting VMs topologically close through a Pastry DHT and lets
// the customer's own VMs trade bandwidth through Scribe aggregation trees
// and any-cast discovery plus live migration.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory; internal/core builds every stack — NewOverlay the overlay
// alone, New everything above it); the runnable entry point is cmd/vb, one
// binary with a subcommand per experiment family (vb placement, vb
// rebalance, vb qos, vb overhead, vb churn, vb faults, vb serve, vb sim)
// plus vb trace and vb metrics over the recordings they write; core,
// rebalance and aggregation carry the paper's worked examples as package
// Examples. The benchmark suite in bench_test.go
// regenerates every table and figure of the paper's evaluation; expected
// versus measured results are recorded in EXPERIMENTS.md.
package vbundle
