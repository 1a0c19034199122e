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
//   - system models: PCIe trees with per-link load accounting
//     (internal/pcie), SSDs (internal/storage), Ethernet prep-pool
//     (internal/eth), and ring all-reduce — real and analytical
//     (internal/collective);
//   - the paper's architectures with their host spec (internal/arch) and
//     the system model (internal/core): NN accelerators, the throughput /
//     bottleneck / requirement solver and the overlapped-training replay,
//     with the discrete-event cross-validation oracles in its tests;
//   - a harness (internal/experiments) regenerating every table and
//     figure of the paper's evaluation, exposed through
//     cmd/trainbox-sim (-exp <name>, or -exp all).
//
// Start with README.md, DESIGN.md (system inventory and substitutions),
// and EXPERIMENTS.md (paper-vs-measured for every table and figure).
package trainbox
