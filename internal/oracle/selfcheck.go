package oracle

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/network"
)

// SelfCheck turns the oracle on itself: it seeds deliberate engine
// bugs and requires the harness to catch each one. A validation
// harness that has never been seen failing proves nothing — this is
// the demonstration that the checks have teeth, pinned by TestSelfCheck.
//
// Two faults are seeded through the credit pool's test-only skew
// knob, one in each direction:
//
//   - a +1-byte credit refund (the classic off-by-one): balances creep
//     past capacity until the invariant checker's credit-bounds audit
//     trips;
//   - a -256-byte refund: credit silently leaks, which the post-drain
//     restitution audit reports (an idle lossless network must hold
//     exactly its as-built credit).
//
// The returned error is non-nil when some seeded bug was NOT caught.
func SelfCheck(seed int64) error {
	sc := Scenarios()[0] // the star: every node's pool is on the hot path
	p, err := experiments.SchemeByName("CCFIT")
	if err != nil {
		return err
	}
	for _, fault := range []struct {
		name string
		skew int
	}{
		{"spurious +1B credit refund", +1},
		{"leaking -256B credit refund", -256},
	} {
		t, tb := sc.Build()
		run, err := RunEngine(t, p, network.Options{Seed: seed, TieBreak: tb}, sc.Flows,
			func(n *network.Network) {
				for _, nd := range n.Nodes {
					nd.CreditPool().SetDebugSkew(fault.skew)
				}
			})
		if err != nil {
			return fmt.Errorf("oracle: self-check %q: engine run: %w", fault.name, err)
		}
		if len(run.Violations) == 0 && run.Drained && run.Rejected == 0 {
			return fmt.Errorf("oracle: self-check FAILED: seeded bug %q went completely unnoticed — the harness is not protecting anything", fault.name)
		}
	}
	return nil
}
