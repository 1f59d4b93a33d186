package recovery

import "fmt"

// RepairKind enumerates the repair strategies the policy engine can
// choose between, ordered least-invasive first: rescaling remaining
// volumes touches no fluid, a retry re-runs one instruction,
// regeneration replays a whole backward slice with fresh reagent,
// degradation gives up on the repair, and abort gives up on the run.
// The ordering is the cost-tie break: between equally-priced viable
// candidates, the less invasive repair wins.
type RepairKind int

const (
	// RepairRescale re-solves the residual DAG around live volumes and
	// patches the rescaled volumes into the remaining instructions.
	RepairRescale RepairKind = iota
	// RepairRetry re-executes the failed instruction in place.
	RepairRetry
	// RepairRegen re-executes the backward slice of a depleted producer.
	RepairRegen
	// RepairDegrade performs no repair; the fault stands as an incident.
	RepairDegrade
	// RepairAbort stops the run.
	RepairAbort
)

func (k RepairKind) String() string {
	switch k {
	case RepairRescale:
		return "rescale"
	case RepairRetry:
		return "retry"
	case RepairRegen:
		return "regen"
	case RepairDegrade:
		return "degrade"
	case RepairAbort:
		return "abort"
	default:
		return fmt.Sprintf("RepairKind(%d)", int(k))
	}
}

// Candidate is one scored repair option for a single fault.
type Candidate struct {
	Kind RepairKind
	// Reagent is the fresh input fluid (nl) the repair would consume.
	Reagent float64
	// Seconds is the simulated time the repair would spend.
	Seconds float64
	// Viable marks the candidate as applicable: budget remaining, the
	// needed compile artifacts present, preconditions met.
	Viable bool
	// Why documents what the repair does (or why it is not viable).
	Why string
}

// The cost model prices candidate repairs in reagent-equivalent
// nanoliters.
const (
	// timeWeight converts simulated seconds to nl-equivalents: a minute
	// of machine time is worth about 3 nl of reagent.
	timeWeight = 0.05
	// degradePenalty prices an unrepaired fault: any repair that consumes
	// actual fluid and time still beats giving up.
	degradePenalty = 1e6
	// abortPenalty prices killing the run: strictly worse than completing
	// degraded.
	abortPenalty = 1e9
)

// cost scores one candidate: reagent plus time-weighted seconds, plus
// the give-up penalty for degrade/abort.
func cost(cand Candidate) float64 {
	c := cand.Reagent + timeWeight*cand.Seconds
	switch cand.Kind {
	case RepairDegrade:
		c += degradePenalty
	case RepairAbort:
		c += abortPenalty
	default:
		// Retry/rescale/regen/replan carry no fixed penalty beyond their
		// reagent and time terms.
	}
	return c
}

// choose picks the cheapest viable candidate; cost ties break toward
// the less invasive kind (the RepairKind ordering). The second return
// is false when no candidate is viable.
func choose(cands ...Candidate) (Candidate, bool) {
	best, found := Candidate{}, false
	var bestCost float64
	for _, cand := range cands {
		if !cand.Viable {
			continue
		}
		c := cost(cand)
		if !found || c < bestCost || (c == bestCost && cand.Kind < best.Kind) {
			best, bestCost, found = cand, c, true
		}
	}
	return best, found
}
