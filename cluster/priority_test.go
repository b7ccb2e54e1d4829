package cluster

import (
	"testing"

	"aiacc/model"
)

// Every model simulates cleanly under reverse-topological packing, preserves
// the volume invariant (checked inside Simulate) and prices a positive
// next-forward critical path.
func TestPriorityDepthSweep(t *testing.T) {
	for _, m := range []model.Model{model.CTR(), model.ResNet50(), model.BERTLarge()} {
		res := simOrFatal(t, aiaccConfig(16, m))
		if res.CriticalPath <= 0 {
			t.Errorf("%s: CriticalPath=%v", m.Name, res.CriticalPath)
		}
	}
}
