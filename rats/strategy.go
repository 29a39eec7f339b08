package rats

import (
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
)

// Strategy selects the mapping behaviour of the second scheduling step.
type Strategy int

const (
	// Baseline is the HCPA mapping: allocations are never modified and
	// every task is placed on the earliest-available processors.
	Baseline Strategy = iota
	// Delta packs or stretches a task onto a predecessor's processor set
	// when the allocation difference lies within the bounds configured by
	// WithDeltaBounds (§III of the paper, "delta").
	Delta
	// TimeCost stretches when the work ratio ρ stays above the threshold
	// configured by WithMinRho and packs when the estimated finish time
	// does not degrade (§III, "time-cost").
	TimeCost
)

// String implements fmt.Stringer; the returned name round-trips through
// ParseStrategy. Out-of-range values render as "Strategy(n)".
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case Delta:
		return "delta"
	case TimeCost:
		return "time-cost"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a strategy name — as printed by Strategy.String,
// plus the aliases used by the paper and the CLIs — into a Strategy.
// Matching is case-insensitive: "baseline", "hcpa" and "none" map to
// Baseline; "delta" to Delta; "time-cost", "timecost" and "tc" to TimeCost.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "baseline", "hcpa", "none":
		return Baseline, nil
	case "delta":
		return Delta, nil
	case "time-cost", "timecost", "tc":
		return TimeCost, nil
	}
	return 0, fmt.Errorf("rats: unknown strategy %q (want baseline, delta or time-cost)", name)
}

// coreStrategy maps the public Strategy onto the internal engine's enum.
func (s Strategy) coreStrategy() (core.Strategy, error) {
	switch s {
	case Baseline:
		return core.StrategyNone, nil
	case Delta:
		return core.StrategyDelta, nil
	case TimeCost:
		return core.StrategyTimeCost, nil
	}
	return 0, fmt.Errorf("rats: invalid strategy %v", s)
}

// Allocator selects the first-step processor allocation procedure.
type Allocator int

const (
	// HCPA is the paper's default: CPA with the average-area correction
	// and per-level caps that keep allocations moderate on large
	// clusters. The zero value, so an unconfigured Scheduler allocates as
	// the paper does.
	HCPA Allocator = iota
	// CPA is the original Radulescu & van Gemund procedure: no area
	// correction, no level cap.
	CPA
	// MCPA additionally constrains each precedence level to fit on the
	// cluster; the paper notes it suits very regular DAGs.
	MCPA
)

// String implements fmt.Stringer; the returned name round-trips through
// ParseAllocator. Out-of-range values render as "Allocator(n)".
func (a Allocator) String() string {
	switch a {
	case HCPA:
		return "hcpa"
	case CPA:
		return "cpa"
	case MCPA:
		return "mcpa"
	}
	return fmt.Sprintf("Allocator(%d)", int(a))
}

// ParseAllocator converts an allocator name (case-insensitive: "cpa",
// "hcpa", "mcpa") into an Allocator.
func ParseAllocator(name string) (Allocator, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "hcpa":
		return HCPA, nil
	case "cpa":
		return CPA, nil
	case "mcpa":
		return MCPA, nil
	}
	return 0, fmt.Errorf("rats: unknown allocator %q (want cpa, hcpa or mcpa)", name)
}

// allocMethod maps the public Allocator onto the internal enum.
func (a Allocator) allocMethod() (alloc.Method, error) {
	switch a {
	case HCPA:
		return alloc.HCPA, nil
	case CPA:
		return alloc.CPA, nil
	case MCPA:
		return alloc.MCPA, nil
	}
	return 0, fmt.Errorf("rats: invalid allocator %v", a)
}
