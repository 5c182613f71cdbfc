// Package icv implements OpenMP internal control variables (ICVs) and the
// OMP_* environment variable parsing that initialises them.
//
// The OpenMP specification drives runtime behaviour through a small set of
// control variables: the default team size, the run-sched-var consulted by
// schedule(runtime) loops, the dynamic adjustment flag, nesting limits and
// wait policy. libomp (which the paper links against) materialises these from
// the environment at startup; this package is the Go analog. A Set is a plain
// value so tests can construct arbitrary configurations without touching the
// process environment.
package icv

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ScheduleKind enumerates the worksharing loop schedules of OpenMP 5.2
// section 11.5. Auto defers the choice to the implementation (we map it to
// nonmonotonic static) and RuntimeSched defers it to the run-sched-var ICV.
type ScheduleKind int

const (
	// StaticSched divides the iteration space into contiguous blocks, or
	// round-robins fixed chunks when a chunk size is given.
	StaticSched ScheduleKind = iota
	// DynamicSched hands out fixed-size chunks first-come first-served.
	DynamicSched
	// GuidedSched hands out exponentially shrinking chunks bounded below
	// by the chunk size.
	GuidedSched
	// AutoSched lets the implementation choose (we choose static).
	AutoSched
	// RuntimeSched consults the run-sched-var ICV at loop entry.
	RuntimeSched
	// StealSched is the work-stealing loop scheduler behind
	// schedule(nonmonotonic:dynamic) — libomp's static_steal: per-thread
	// iteration ranges initialised block-static, popped locally from the
	// front, with idle threads stealing half a victim's remaining tail.
	// Chunks may execute out of logical iteration order within a thread,
	// which is exactly the latitude the nonmonotonic modifier grants.
	StealSched
)

// String returns the spec spelling of the schedule kind.
func (k ScheduleKind) String() string {
	switch k {
	case StaticSched:
		return "static"
	case DynamicSched:
		return "dynamic"
	case GuidedSched:
		return "guided"
	case AutoSched:
		return "auto"
	case RuntimeSched:
		return "runtime"
	case StealSched:
		// The portable spelling: a dynamic schedule with the nonmonotonic
		// modifier. ParseSchedule maps it back to StealSched, so
		// Schedule.String round-trips.
		return "nonmonotonic:dynamic"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ParseScheduleKind parses a spec spelling ("static", "dynamic", "guided",
// "auto", "runtime"), case-insensitively. The extension spellings "steal"
// and "static_steal" (libomp's KMP_SCHEDULE name) select the work-stealing
// scheduler; the portable way to reach it is the "nonmonotonic:dynamic"
// modifier syntax handled by ParseSchedule.
func ParseScheduleKind(s string) (ScheduleKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "static":
		return StaticSched, nil
	case "dynamic":
		return DynamicSched, nil
	case "guided":
		return GuidedSched, nil
	case "auto":
		return AutoSched, nil
	case "runtime":
		return RuntimeSched, nil
	case "steal", "static_steal":
		return StealSched, nil
	default:
		return 0, fmt.Errorf("icv: unknown schedule kind %q", s)
	}
}

// Schedule couples a schedule kind with a chunk size. Chunk <= 0 means
// "unspecified" and selects the spec default for the kind (block division for
// static, 1 for dynamic and guided).
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// String renders the schedule as it would appear in a schedule clause.
func (s Schedule) String() string {
	if s.Chunk > 0 {
		return fmt.Sprintf("%s,%d", s.Kind, s.Chunk)
	}
	return s.Kind.String()
}

// ParseSchedule parses the OMP_SCHEDULE syntax: "kind" or "kind,chunk" with
// an optional "modifier:" prefix. "nonmonotonic:dynamic" selects the
// work-stealing scheduler (StealSched); "monotonic:" pins the ordinary
// monotonic implementation of the kind; on other kinds the modifiers are
// accepted without changing behaviour (every remaining schedule here is
// monotonic anyway).
func ParseSchedule(s string) (Schedule, error) {
	body := strings.TrimSpace(s)
	mod := ""
	if i := strings.Index(body, ":"); i >= 0 {
		mod = strings.ToLower(strings.TrimSpace(body[:i]))
		if mod != "monotonic" && mod != "nonmonotonic" {
			return Schedule{}, fmt.Errorf("icv: unknown schedule modifier %q", mod)
		}
		body = body[i+1:]
	}
	kindStr, chunkStr, hasChunk := strings.Cut(body, ",")
	kind, err := ParseScheduleKind(kindStr)
	if err != nil {
		return Schedule{}, err
	}
	if mod == "nonmonotonic" && kind == DynamicSched {
		kind = StealSched
	}
	if mod == "monotonic" && kind == StealSched {
		return Schedule{}, fmt.Errorf("icv: schedule %q: the steal schedule is nonmonotonic by construction", s)
	}
	sched := Schedule{Kind: kind}
	if hasChunk {
		n, err := strconv.Atoi(strings.TrimSpace(chunkStr))
		if err != nil {
			return Schedule{}, fmt.Errorf("icv: bad chunk size in schedule %q: %v", s, err)
		}
		if n <= 0 {
			return Schedule{}, fmt.Errorf("icv: chunk size must be positive, got %d", n)
		}
		sched.Chunk = n
	}
	return sched, nil
}

// WaitPolicy controls how threads wait at barriers and locks
// (OMP_WAIT_POLICY). Active spins, Passive yields/sleeps eagerly.
type WaitPolicy int

const (
	// PolicyAuto lets the runtime pick (spin briefly, then block).
	PolicyAuto WaitPolicy = iota
	// PolicyActive keeps waiting threads spinning on the CPU.
	PolicyActive
	// PolicyPassive makes waiting threads yield immediately.
	PolicyPassive
)

// String returns the spec spelling of the wait policy.
func (p WaitPolicy) String() string {
	switch p {
	case PolicyActive:
		return "active"
	case PolicyPassive:
		return "passive"
	default:
		return "auto"
	}
}

// ProcBind mirrors OMP_PROC_BIND. Goroutines cannot be pinned to cores from
// portable Go, so the value is recorded and reported but acts as a hint only;
// DESIGN.md documents this substitution.
type ProcBind int

const (
	// BindFalse disables affinity requests.
	BindFalse ProcBind = iota
	// BindTrue enables implementation-defined binding.
	BindTrue
	// BindPrimary binds threads to the primary thread's place.
	BindPrimary
	// BindClose places threads on places close to the parent.
	BindClose
	// BindSpread spreads threads over the place list.
	BindSpread
)

// String returns the spec spelling of the binding policy.
func (b ProcBind) String() string {
	switch b {
	case BindTrue:
		return "true"
	case BindPrimary:
		return "primary"
	case BindClose:
		return "close"
	case BindSpread:
		return "spread"
	default:
		return "false"
	}
}

// ParseProcBind parses the OMP_PROC_BIND syntax. Comma-separated lists (one
// entry per nesting level) collapse to their first entry, matching what our
// single-level-affinity runtime can honour.
func ParseProcBind(s string) (ProcBind, error) {
	first, _, _ := strings.Cut(s, ",")
	switch strings.ToLower(strings.TrimSpace(first)) {
	case "false":
		return BindFalse, nil
	case "true":
		return BindTrue, nil
	case "primary", "master": // "master" is the deprecated 4.x spelling
		return BindPrimary, nil
	case "close":
		return BindClose, nil
	case "spread":
		return BindSpread, nil
	default:
		return 0, fmt.Errorf("icv: unknown proc_bind %q", s)
	}
}

// OffloadPolicy mirrors OMP_TARGET_OFFLOAD (target-offload-var): whether
// target regions must, may, or must not execute on a non-host device.
type OffloadPolicy int

const (
	// OffloadDefault tries the requested device and silently falls back to
	// the host when it is unavailable (the spec's "default" behaviour).
	OffloadDefault OffloadPolicy = iota
	// OffloadMandatory makes an unavailable device a runtime error.
	OffloadMandatory
	// OffloadDisabled executes every target region on the host.
	OffloadDisabled
)

// String returns the OMP_TARGET_OFFLOAD spelling of the policy.
func (p OffloadPolicy) String() string {
	switch p {
	case OffloadMandatory:
		return "mandatory"
	case OffloadDisabled:
		return "disabled"
	default:
		return "default"
	}
}

// ParseOffloadPolicy parses the OMP_TARGET_OFFLOAD syntax
// (mandatory|disabled|default), case-insensitively.
func ParseOffloadPolicy(s string) (OffloadPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "default":
		return OffloadDefault, nil
	case "mandatory":
		return OffloadMandatory, nil
	case "disabled":
		return OffloadDisabled, nil
	default:
		return 0, fmt.Errorf("icv: unknown target-offload policy %q (want mandatory, disabled or default)", s)
	}
}

// Set holds one device's ICVs. The zero value is not useful; construct with
// Default or FromEnv. The device layer (internal/device) materialises one
// Set per registered device, cloned from the host's at registration.
type Set struct {
	// NumThreads is nthreads-var: the team size for parallel regions that
	// carry no num_threads clause. Index 0 is the outermost level; deeper
	// nesting levels reuse the last entry (OMP_NUM_THREADS list syntax).
	NumThreads []int
	// Dynamic is dyn-var: whether the runtime may shrink requested teams.
	Dynamic bool
	// MaxActiveLevels is max-active-levels-var: the nesting depth beyond
	// which parallel regions serialise.
	MaxActiveLevels int
	// ThreadLimit is thread-limit-var: a cap on threads alive at once.
	ThreadLimit int
	// RunSched is run-sched-var, consulted by schedule(runtime) loops.
	RunSched Schedule
	// Wait is the barrier/lock waiting policy.
	Wait WaitPolicy
	// Bind is the (advisory, see ProcBind) affinity policy.
	Bind ProcBind
	// StackSizeBytes records OMP_STACKSIZE. Goroutine stacks grow
	// automatically so this is informational only.
	StackSizeBytes int64
	// DisplayEnv records whether OMP_DISPLAY_ENV requested a banner.
	DisplayEnv bool
	// DefaultDevice is default-device-var: the device id a target construct
	// without a device clause executes on (OMP_DEFAULT_DEVICE). Device 0 is
	// the host backend.
	DefaultDevice int
	// TargetOffload is target-offload-var (OMP_TARGET_OFFLOAD).
	TargetOffload OffloadPolicy
	// TeamShards sizes the hot-team cache shard table of the multi-tenant
	// fork path (GOMP_TEAM_SHARDS, a GoMP extension): 0 selects one shard
	// per GOMAXPROCS processor; the kmp layer rounds up to a power of two.
	TeamShards int
}

// Default returns the ICV set the spec mandates absent any environment:
// team size = number of available processors, static schedule, one active
// level of parallelism... except that, like libomp, we default
// max-active-levels to 1 so accidental nested parallelism does not explode.
func Default() *Set {
	return &Set{
		NumThreads:      []int{runtime.GOMAXPROCS(0)},
		Dynamic:         false,
		MaxActiveLevels: 1,
		ThreadLimit:     1 << 20,
		RunSched:        Schedule{Kind: StaticSched},
		Wait:            PolicyAuto,
		Bind:            BindFalse,
	}
}

// NumThreadsForLevel returns the nthreads-var entry for a given nesting
// level, applying the OpenMP rule that levels beyond the list reuse the
// final entry. It takes a bare nthreads-var list — the form the kmp layer's
// atomic fork-ICV snapshots read, where no Set exists.
func NumThreadsForLevel(list []int, level int) int {
	if len(list) == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if level < 0 {
		level = 0
	}
	if level >= len(list) {
		level = len(list) - 1
	}
	n := list[level]
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Clone returns a deep copy, used when a task region snapshots its ICVs.
func (s *Set) Clone() *Set {
	c := *s
	c.NumThreads = append([]int(nil), s.NumThreads...)
	return &c
}

// LookupFunc abstracts os.LookupEnv so tests can inject environments.
type LookupFunc func(key string) (string, bool)

// FromEnv builds a Set from OMP_* environment variables, starting from
// Default. Unknown or malformed values contribute errors but never abort:
// like libomp, a bad variable is diagnosed and its default retained. The
// returned slice preserves variable order for deterministic diagnostics.
func FromEnv(lookup LookupFunc) (*Set, []error) {
	s := Default()
	var errs []error
	fail := func(key, val string, err error) {
		errs = append(errs, fmt.Errorf("icv: %s=%q: %w", key, val, err))
	}

	if v, ok := lookup("OMP_NUM_THREADS"); ok {
		list, err := parseIntList(v)
		if err != nil {
			fail("OMP_NUM_THREADS", v, err)
		} else {
			s.NumThreads = list
		}
	}
	if v, ok := lookup("OMP_DYNAMIC"); ok {
		b, err := parseBool(v)
		if err != nil {
			fail("OMP_DYNAMIC", v, err)
		} else {
			s.Dynamic = b
		}
	}
	if v, ok := lookup("OMP_SCHEDULE"); ok {
		sched, err := ParseSchedule(v)
		if err != nil {
			fail("OMP_SCHEDULE", v, err)
		} else {
			s.RunSched = sched
		}
	}
	if v, ok := lookup("OMP_MAX_ACTIVE_LEVELS"); ok {
		n, err := parsePositiveInt(v)
		if err != nil {
			fail("OMP_MAX_ACTIVE_LEVELS", v, err)
		} else {
			s.MaxActiveLevels = n
		}
	}
	if v, ok := lookup("OMP_NESTED"); ok {
		// Deprecated in 5.x but still honoured: true lifts the level cap.
		b, err := parseBool(v)
		if err != nil {
			fail("OMP_NESTED", v, err)
		} else if b && s.MaxActiveLevels <= 1 {
			s.MaxActiveLevels = 1 << 30
		} else if !b {
			s.MaxActiveLevels = 1
		}
	}
	if v, ok := lookup("OMP_THREAD_LIMIT"); ok {
		n, err := parsePositiveInt(v)
		if err != nil {
			fail("OMP_THREAD_LIMIT", v, err)
		} else {
			s.ThreadLimit = n
		}
	}
	if v, ok := lookup("OMP_WAIT_POLICY"); ok {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "active":
			s.Wait = PolicyActive
		case "passive":
			s.Wait = PolicyPassive
		default:
			fail("OMP_WAIT_POLICY", v, fmt.Errorf("want active or passive"))
		}
	}
	if v, ok := lookup("OMP_PROC_BIND"); ok {
		b, err := ParseProcBind(v)
		if err != nil {
			fail("OMP_PROC_BIND", v, err)
		} else {
			s.Bind = b
		}
	}
	if v, ok := lookup("OMP_STACKSIZE"); ok {
		n, err := parseStackSize(v)
		if err != nil {
			fail("OMP_STACKSIZE", v, err)
		} else {
			s.StackSizeBytes = n
		}
	}
	if v, ok := lookup("OMP_DEFAULT_DEVICE"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			fail("OMP_DEFAULT_DEVICE", v, err)
		} else if n < 0 {
			fail("OMP_DEFAULT_DEVICE", v, fmt.Errorf("device id must be non-negative, got %d", n))
		} else {
			s.DefaultDevice = n
		}
	}
	if v, ok := lookup("OMP_TARGET_OFFLOAD"); ok {
		p, err := ParseOffloadPolicy(v)
		if err != nil {
			fail("OMP_TARGET_OFFLOAD", v, err)
		} else {
			s.TargetOffload = p
		}
	}
	if v, ok := lookup("GOMP_TEAM_SHARDS"); ok {
		n, err := parsePositiveInt(v)
		if err != nil {
			fail("GOMP_TEAM_SHARDS", v, err)
		} else {
			s.TeamShards = n
		}
	}
	if v, ok := lookup("OMP_DISPLAY_ENV"); ok {
		b, err := parseBool(v)
		if err != nil && strings.EqualFold(strings.TrimSpace(v), "verbose") {
			b, err = true, nil
		}
		if err != nil {
			fail("OMP_DISPLAY_ENV", v, err)
		} else {
			s.DisplayEnv = b
		}
	}
	return s, errs
}

// Display renders the ICVs in the style of OMP_DISPLAY_ENV=true banners, one
// "  [host] VAR = 'value'" line per variable, sorted for determinism.
func (s *Set) Display() string {
	nums := make([]string, len(s.NumThreads))
	for i, n := range s.NumThreads {
		nums[i] = strconv.Itoa(n)
	}
	rows := map[string]string{
		"OMP_NUM_THREADS":       strings.Join(nums, ","),
		"OMP_DYNAMIC":           boolWord(s.Dynamic),
		"OMP_SCHEDULE":          s.RunSched.String(),
		"OMP_MAX_ACTIVE_LEVELS": strconv.Itoa(s.MaxActiveLevels),
		"OMP_THREAD_LIMIT":      strconv.Itoa(s.ThreadLimit),
		"OMP_WAIT_POLICY":       s.Wait.String(),
		"OMP_PROC_BIND":         s.Bind.String(),
		"OMP_DEFAULT_DEVICE":    strconv.Itoa(s.DefaultDevice),
		"OMP_TARGET_OFFLOAD":    strings.ToUpper(s.TargetOffload.String()),
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("OPENMP DISPLAY ENVIRONMENT BEGIN\n")
	b.WriteString("  _OPENMP = '202111'\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  [host] %s = '%s'\n", k, rows[k])
	}
	b.WriteString("OPENMP DISPLAY ENVIRONMENT END\n")
	return b.String()
}

func boolWord(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func parseBool(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "1", "yes", "on":
		return true, nil
	case "false", "0", "no", "off":
		return false, nil
	default:
		return false, fmt.Errorf("not a boolean")
	}
}

func parsePositiveInt(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("must be positive, got %d", n)
	}
	return n, nil
}

func parseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := parsePositiveInt(p)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseStackSize accepts the OMP_STACKSIZE grammar: a decimal number with an
// optional B/K/M/G/T suffix (case-insensitive); a bare number means kibibytes.
func parseStackSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1024) // bare numbers are KiB per the spec
	switch t[len(t)-1] {
	case 'B':
		mult = 1
		t = t[:len(t)-1]
	case 'K':
		mult = 1 << 10
		t = t[:len(t)-1]
	case 'M':
		mult = 1 << 20
		t = t[:len(t)-1]
	case 'G':
		mult = 1 << 30
		t = t[:len(t)-1]
	case 'T':
		mult = 1 << 40
		t = t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("must be positive, got %d", n)
	}
	return n * mult, nil
}
