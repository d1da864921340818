package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/stats"
)

// advCell is one measurement of the degradation sweep, shaped for machine
// consumption: the JSON rendering of the full grid is emitted as a note so
// downstream tooling can parse the sweep without scraping the text table.
type advCell struct {
	Scheme   string  `json:"scheme"`
	Drop     float64 `json:"drop"`
	Delay    int     `json:"delay"`
	Rounds   int     `json:"rounds,omitempty"`
	Messages int64   `json:"messages,omitempty"`
	Dropped  int64   `json:"dropped,omitempty"`
	Coverage float64 `json:"coverage"`
	Err      string  `json:"error,omitempty"`
}

// E17DegradationUnderAdversity measures how gracefully each protocol family
// trades the free-lunch fidelity guarantee for robustness when the network
// misbehaves: a drop-rate × delay-bound grid, with per-scheme coverage
// defined as the fraction of node outputs that still match the *clean*
// direct run. The flawless cell must stay at 100% coverage (Theorem 3 is
// exact on a flawless network); adversarial cells are measurements, not
// guarantees — a scheme may even fail outright (typed error), and that
// failure is recorded as a 0-coverage cell rather than aborting the sweep.
// Every send is still billed at send time, so the messages column is the
// honest bill and the dropped column is the adversary's share of it.
func E17DegradationUnderAdversity(quick bool) Report {
	rep := Report{
		ID:    "E17",
		Title: "degradation under adversity (drop × delay sweep)",
		Claim: "coverage is exactly 100% on the flawless cell and degrades measurably, not catastrophically, at small drop rates",
		Pass:  true,
	}
	n := 80
	drops := []float64{0, 0.05, 0.1, 0.2}
	delays := []int{0, 2}
	if quick {
		n = 50
		drops = []float64{0, 0.1}
	}
	schemes := []string{"direct", "scheme1", "scheme2", "gossip"}
	g := gnpWithDegree(n, 10, 77)
	spec := repro.MaxID(3)
	const seed = 13

	// The clean direct run is the coverage yardstick for every cell.
	baseline, err := repro.NewEngine(
		repro.WithSeed(seed), repro.WithConcurrency(-1),
		repro.WithGamma(1), repro.WithStageK(2),
	).Run(context.Background(), "direct", g, spec)
	if err != nil {
		panic(err)
	}

	var cells []advCell
	var rows [][]string
	for _, drop := range drops {
		for _, delay := range delays {
			profile := repro.AdversaryProfile{
				Name:       fmt.Sprintf("e17-d%02.0f-y%d", drop*100, delay),
				Seed:       0xe17,
				DropRate:   drop,
				DelayBound: delay,
			}
			for _, scheme := range schemes {
				eng := repro.NewEngine(
					repro.WithSeed(seed), repro.WithConcurrency(-1),
					repro.WithGamma(1), repro.WithStageK(2),
					repro.WithAdversary(profile),
				)
				cell := advCell{Scheme: scheme, Drop: drop, Delay: delay}
				res, err := eng.Run(context.Background(), scheme, g, spec)
				if err != nil {
					// Starved schemes fail typed; that *is* the measurement.
					cell.Err = err.Error()
					cells = append(cells, cell)
					rows = append(rows, []string{scheme, stats.F(drop), fmt.Sprint(delay), "-", "-", "-", "failed"})
					if drop == 0 && delay == 0 {
						rep.Pass = false
						rep.Notes = append(rep.Notes, fmt.Sprintf("%s failed on the flawless cell: %v", scheme, err))
					}
					if Progress != nil {
						Progress("E17: %-16s drop=%.2f delay=%d failed: %v", scheme, drop, delay, err)
					}
					continue
				}
				match := 0
				for v := range baseline.Outputs {
					if res.Outputs[v] == baseline.Outputs[v] {
						match++
					}
				}
				cell.Rounds, cell.Messages = res.Rounds, res.Messages
				for _, ph := range res.Phases {
					cell.Dropped += ph.Dropped
				}
				cell.Coverage = float64(match) / float64(len(baseline.Outputs))
				cells = append(cells, cell)
				rows = append(rows, []string{
					scheme, stats.F(drop), fmt.Sprint(delay),
					fmt.Sprint(res.Rounds), fmt.Sprint(res.Messages),
					fmt.Sprint(cell.Dropped), stats.F(cell.Coverage),
				})
				if Progress != nil {
					Progress("E17: %-16s drop=%.2f delay=%d coverage=%.2f (%d dropped)", scheme, drop, delay, cell.Coverage, cell.Dropped)
				}
				if drop == 0 && delay == 0 {
					if cell.Coverage != 1 {
						rep.Pass = false
						rep.Notes = append(rep.Notes, fmt.Sprintf("%s: flawless cell coverage %.2f, want exactly 1", scheme, cell.Coverage))
					}
					if cell.Dropped != 0 {
						rep.Pass = false
						rep.Notes = append(rep.Notes, fmt.Sprintf("%s: flawless cell attributed %d dropped messages", scheme, cell.Dropped))
					}
				}
			}
		}
	}

	// Shape check: the adversary must actually bite — at the highest drop
	// rate some scheme loses coverage, and the dropped ledger is nonzero.
	maxDrop := drops[len(drops)-1]
	bit := false
	var damage int64
	for _, c := range cells {
		if c.Drop == maxDrop {
			damage += c.Dropped
			if c.Err != "" || c.Coverage < 1 {
				bit = true
			}
		}
	}
	if !bit {
		rep.Pass = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("drop rate %.2f left every scheme at full coverage; the adversary is not wired in", maxDrop))
	}
	if damage == 0 {
		rep.Pass = false
		rep.Notes = append(rep.Notes, "no dropped messages billed at the highest drop rate")
	}

	rep.Table = stats.Table([]string{"scheme", "drop", "delay", "rounds", "messages", "dropped", "coverage"}, rows)
	blob, err := json.Marshal(cells)
	if err != nil {
		panic(err)
	}
	rep.Notes = append(rep.Notes,
		"coverage = fraction of node outputs equal to the clean direct run; failed cells carry an error instead",
		"gossip damage attribution covers the executed schedule, which under delay profiles runs past the billed cover prefix (dropped can exceed the truncated message bill)",
		"json: "+string(blob))
	return rep
}
