package sweep

import (
	"time"

	"repro/internal/core"
)

// Outcome is the checkpointable summary of one scenario's advisory:
// exactly the fields the report serialization (WriteJSON, Table) and the
// recommendation logic (Best, MeetsTarget) consume, in lossless form
// (durations as integer nanoseconds, never float milliseconds). A sweep
// resumed from persisted Outcomes produces a report byte-identical to an
// uninterrupted run — the async job subsystem checkpoints one Outcome
// per completed scenario for exactly this purpose.
//
// JSON field names are part of the on-disk checkpoint format; changing
// them invalidates existing job checkpoints. The format carries no
// diagnostics: older lines that still hold hasResult, pruneEvaluated,
// pruneSkipped or evalPanics decode as before, those fields ignored.
type Outcome struct {
	// Failed reports an advisory error; Err carries its message.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
	// HasWinner reports a successful advisory with a ranked winner; the
	// remaining fields describe that winner.
	HasWinner  bool   `json:"hasWinner,omitempty"`
	Winner     string `json:"winner,omitempty"`
	WinnerKey  string `json:"winnerKey,omitempty"`
	Fragments  int64  `json:"fragments,omitempty"`
	AccessNs   int64  `json:"accessNs,omitempty"`
	ResponseNs int64  `json:"responseNs,omitempty"`
	Scheme     string `json:"scheme,omitempty"`
	CapacityOK bool   `json:"capacityOK,omitempty"`
}

// outcomeOf derives the checkpointable summary from one scenario's
// advisory (the scenario's input schema names the winner).
func outcomeOf(sc *Scenario, res *core.Result, err error) Outcome {
	if err != nil {
		return Outcome{Failed: true, Err: err.Error()}
	}
	ev := res.Best()
	if ev == nil {
		return Outcome{}
	}
	return Outcome{
		HasWinner:  true,
		Winner:     ev.Frag.Name(sc.Input.Schema),
		WinnerKey:  ev.Frag.Key(),
		Fragments:  ev.Geometry.NumFragments(),
		AccessNs:   int64(ev.AccessCost),
		ResponseNs: int64(ev.ResponseTime),
		Scheme:     ev.Placement.Scheme.String(),
		CapacityOK: ev.CapacityOK,
	}
}

// AccessCost returns the winner's I/O cost as a duration.
func (o *Outcome) AccessCost() time.Duration { return time.Duration(o.AccessNs) }

// ResponseTime returns the winner's response time as a duration.
func (o *Outcome) ResponseTime() time.Duration { return time.Duration(o.ResponseNs) }

// Progress is delivered to Options.OnScenario once per scenario, as soon
// as it completes. Calls are serialized; Done rises by one per call and
// reaches Total exactly when the sweep finishes.
type Progress struct {
	// Index is the scenario's position in canonical grid order — the key
	// a resumable caller persists the Outcome under.
	Index int
	// Done / Total count scenarios.
	Done, Total int
	// Outcome is the advisory's checkpointable summary.
	Outcome Outcome
	// Result is the advisory this run evaluated: nil for a scenario
	// replayed from Options.Resume, and for an advisory that failed
	// without one. Its diagnostics (PruneStats, Faults) describe this
	// run only; they never enter the Outcome.
	Result *core.Result
	// Resumed reports an Outcome replayed from Options.Resume rather
	// than evaluated in this run.
	Resumed bool
}
