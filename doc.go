// Package trainbox is a from-scratch Go reproduction of "TrainBox: An
// Extreme-Scale Neural Network Training Server Architecture by
// Systematically Balancing Operations" (Park, Jeong, Kim — MICRO 2020).
//
// The module contains:
//
//   - real data-preparation substrates: a JPEG image pipeline
//     (internal/imgproc) and an STFT/Mel audio front-end (internal/dsp)
//     composed by internal/dataprep, with an FPGA emulator
//     (internal/fpga) proving offload bit-equality;
//   - system models: PCIe trees with max-min-fair contention
//     (internal/pcie), SSDs (internal/storage), host resources
//     (internal/hostres), Ethernet prep-pool (internal/eth), NN
//     accelerators (internal/accel), ring all-reduce — real and
//     analytical (internal/collective) — and a discrete-event engine
//     (internal/sim);
//   - the paper's architectures (internal/arch) and the throughput /
//     bottleneck / requirement solver (internal/core);
//   - a harness (internal/experiments) regenerating every table and
//     figure of the paper's evaluation, exposed through
//     cmd/trainbox-sim (-exp <name>, or -exp all).
//
// Start with README.md, DESIGN.md (system inventory and substitutions),
// and EXPERIMENTS.md (paper-vs-measured for every table and figure).
package trainbox
