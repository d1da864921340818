package globalcompute

import (
	"context"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/local"
	"repro/internal/xrand"
)

func localCfg(workers int) local.Config {
	return local.Config{Seed: 11, Workers: workers}
}

// TestDetectTermination pins the termination-detection primitive: the
// convergecast-AND verdict is true exactly when every node's predicate is
// true, every control message is billed, and both engines agree on the bill.
func TestDetectTermination(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, xrand.New(17))
	diam := g.Diameter()
	allDone := make([]bool, g.NumNodes())
	for i := range allDone {
		allDone[i] = true
	}

	ok, run, err := DetectTermination(context.Background(), g, allDone, diam, localCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("all-true predicates convergecast to a false verdict")
	}
	if run.Messages == 0 || run.Rounds == 0 {
		t.Fatalf("detection billed %d messages over %d rounds; knowing you're done is not free", run.Messages, run.Rounds)
	}

	okc, runc, err := DetectTermination(context.Background(), g, allDone, diam, localCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if okc != ok || runc.Messages != run.Messages || runc.Rounds != run.Rounds {
		t.Fatalf("engines disagree: (%v, %d msgs, %d rounds) vs (%v, %d, %d)",
			ok, run.Messages, run.Rounds, okc, runc.Messages, runc.Rounds)
	}

	// One straggler flips the verdict everywhere.
	notDone := make([]bool, g.NumNodes())
	copy(notDone, allDone)
	notDone[g.NumNodes()-1] = false
	ok, _, err = DetectTermination(context.Background(), g, notDone, diam, localCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a false predicate did not veto the AND")
	}

	if _, _, err := DetectTermination(context.Background(), g, make([]bool, 3), diam, localCfg(0)); err == nil {
		t.Fatal("mismatched predicate length not rejected")
	}
}
