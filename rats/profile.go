package rats

import (
	"fmt"
	"strings"
)

// Profile selects the pipeline's exactness/speed trade-off as one named
// bundle instead of individual knobs. Two profiles exist:
//
//   - ProfileFast (the default): the ablation-backed approximation point —
//     size-capped exact alignment (AlignmentAuto at core.FastAlignCap) and
//     a raised flownet scratch-solve threshold. The internal/ablate harness measured zero
//     changed schedules and 0.00% makespan delta for this bundle on every
//     scenario class (docs/ablation_pr10.json); the profile's contract is
//     ≤0.5% mean makespan delta against the reference.
//   - ProfileReference: the exact pipeline — full Hungarian alignment and
//     the default scratch threshold. The permanent oracle:
//     golden digests and cross-checks pin it, and
//     TestProfileFastMakespanBound bounds fast against it.
//
// An explicit WithAlignment always wins over the profile's alignment
// choice; the profile then still controls the remaining knobs.
type Profile int

const (
	// ProfileFast is the default speed profile (and the zero value).
	ProfileFast Profile = iota
	// ProfileReference is the exact reference profile.
	ProfileReference
)

// String implements fmt.Stringer; the returned name round-trips through
// ParseProfile. Out-of-range values render as "Profile(n)".
func (p Profile) String() string {
	switch p {
	case ProfileFast:
		return "fast"
	case ProfileReference:
		return "reference"
	}
	return fmt.Sprintf("Profile(%d)", int(p))
}

// ParseProfile converts a profile name (case-insensitive: "fast",
// "reference") into a Profile.
func ParseProfile(name string) (Profile, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "fast":
		return ProfileFast, nil
	case "reference":
		return ProfileReference, nil
	}
	return 0, fmt.Errorf("rats: unknown profile %q (want fast or reference)", name)
}

// WithProfile selects the exactness/speed profile (default: ProfileFast).
// Out-of-range values are configuration errors surfaced by the first
// Schedule or ScheduleAll call.
func WithProfile(p Profile) Option {
	return func(s *Scheduler) { s.profile = p }
}

// Profile returns the configured profile.
func (s *Scheduler) Profile() Profile { return s.profile }
