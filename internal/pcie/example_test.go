package pcie_test

import (
	"fmt"

	"trainbox/internal/pcie"
)

// ExampleTopology_RouteCrossesRoot shows the locality property TrainBox's
// clustering exploits: a transfer between devices under the same switch
// never reaches the root complex.
func ExampleTopology_RouteCrossesRoot() {
	b := pcie.NewBuilder(pcie.Gen3)
	rc := b.Root("rc")
	box := b.Switch(rc, "trainbox0")
	ssd := b.Device(box, pcie.KindSSD, "ssd")
	fpga := b.Device(box, pcie.KindPrepAccel, "fpga")
	other := b.Switch(rc, "trainbox1")
	accFar := b.Device(other, pcie.KindNNAccel, "acc-far")
	topo := b.Build()

	fmt.Println("in-box:", topo.RouteCrossesRoot(ssd, fpga))
	fmt.Println("cross-box:", topo.RouteCrossesRoot(ssd, accFar))
	// Output:
	// in-box: false
	// cross-box: true
}
