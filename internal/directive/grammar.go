package directive

import "strings"

// constructRow describes one construct spelling. The parser tries the rows
// in table order, so longer spellings come first.
type constructRow struct {
	spelling string
	c        Construct
	// prefix is the number of leading words that commit the parser to this
	// row: when the words after them do not follow, the directive is this
	// construct with a syntax error, not a shorter row. Zero means the full
	// spelling must match.
	prefix     int
	standalone bool
	// arg parses the construct's own argument after its words (critical's
	// name, atomic's form word, flush's list, cancel's construct type).
	arg func(p *parser, d *Directive)
	// clauses lists the clause names valid on the construct (OpenMP 5.2,
	// restricted to what this implementation lowers).
	clauses string
}

// constructs is the construct table. A Construct's first row holds its
// canonical spelling and its rules; a later row of the same Construct is an
// alias.
var constructs = []constructRow{
	// Only the fully combined form of target teams is supported: target
	// teams and target teams distribute have no lowering of their own.
	{spelling: "target teams distribute parallel for", c: ConstructTargetTeamsDistributeParallelFor, prefix: 2,
		clauses: "map device is_device_ptr if nowait num_teams thread_limit private firstprivate shared default schedule collapse"},
	{spelling: "target enter data", c: ConstructTargetEnterData, prefix: 2, standalone: true, clauses: "map device if nowait"},
	{spelling: "target exit data", c: ConstructTargetExitData, prefix: 2, standalone: true, clauses: "map device if nowait"},
	{spelling: "parallel for", c: ConstructParallelFor,
		clauses: "private firstprivate lastprivate shared default reduction schedule collapse num_threads if ordered proc_bind"},
	{spelling: "parallel sections", c: ConstructParallelSections,
		clauses: "private firstprivate shared default reduction num_threads if"},
	{spelling: "cancellation point", c: ConstructCancellationPoint, prefix: 1, standalone: true,
		arg: (*parser).cancelType, clauses: "name"},
	{spelling: "target data", c: ConstructTargetData, clauses: "map device if"},
	{spelling: "target update", c: ConstructTargetUpdate, standalone: true, clauses: "to from device if nowait"},
	{spelling: "parallel", c: ConstructParallel,
		clauses: "private firstprivate shared default reduction num_threads if proc_bind"},
	{spelling: "for", c: ConstructFor,
		clauses: "private firstprivate lastprivate reduction schedule collapse nowait ordered"},
	{spelling: "sections", c: ConstructSections, clauses: "private firstprivate lastprivate reduction nowait"},
	{spelling: "section", c: ConstructSection},
	{spelling: "single", c: ConstructSingle, clauses: "private firstprivate copyprivate nowait"},
	{spelling: "master", c: ConstructMaster},
	{spelling: "masked", c: ConstructMaster},
	{spelling: "critical", c: ConstructCritical, arg: (*parser).criticalName, clauses: "name"},
	{spelling: "barrier", c: ConstructBarrier, standalone: true},
	{spelling: "atomic", c: ConstructAtomic, arg: (*parser).atomicForm},
	// ordered takes depend only in its doacross forms (sink/source), which
	// make it standalone; Validate rejects the task dependence types on it.
	{spelling: "ordered", c: ConstructOrdered, clauses: "depend"},
	{spelling: "task", c: ConstructTask,
		clauses: "private firstprivate shared default if untied depend priority final"},
	{spelling: "taskwait", c: ConstructTaskwait, standalone: true},
	{spelling: "taskgroup", c: ConstructTaskgroup},
	{spelling: "taskloop", c: ConstructTaskloop,
		clauses: "private firstprivate lastprivate shared grainsize if num_tasks nogroup priority final untied"},
	{spelling: "flush", c: ConstructFlush, standalone: true, arg: (*parser).flushList},
	{spelling: "cancel", c: ConstructCancel, standalone: true, arg: (*parser).cancelType, clauses: "name if"},
	{spelling: "taskyield", c: ConstructTaskyield, standalone: true},
	{spelling: "target", c: ConstructTarget, clauses: "map device is_device_ptr if nowait"},
}

// constructRowOf returns c's canonical row, nil for ConstructInvalid.
func constructRowOf(c Construct) *constructRow {
	for i := range constructs {
		if constructs[i].c == c {
			return &constructs[i]
		}
	}
	return nil
}

// clauseRow describes one clause: its name, its kind, the parser of its
// argument shape, and whether it may appear at most once per directive.
// That last is a property of the clause on every construct, so a repeat is
// reported even where the clause is not allowed.
type clauseRow struct {
	name  string
	kind  ClauseKind
	parse func(p *parser, k ClauseKind) (Clause, bool)
	once  bool
}

// clauses is the clause table.
var clauses = []clauseRow{
	{"private", ClausePrivate, (*parser).list, false},
	{"firstprivate", ClauseFirstprivate, (*parser).list, false},
	{"lastprivate", ClauseLastprivate, (*parser).list, false},
	{"shared", ClauseShared, (*parser).list, false},
	{"copyprivate", ClauseCopyprivate, (*parser).list, false},
	{"default", ClauseDefault, (*parser).defaultMode, true},
	{"reduction", ClauseReduction, (*parser).reduction, false},
	{"schedule", ClauseSchedule, (*parser).schedule, true},
	{"num_threads", ClauseNumThreads, (*parser).expr, true},
	{"if", ClauseIf, (*parser).expr, true},
	{"collapse", ClauseCollapse, (*parser).integer, true},
	{"nowait", ClauseNowait, (*parser).flag, true},
	{"ordered", ClauseOrdered, (*parser).integer, true},
	{"proc_bind", ClauseProcBind, (*parser).procBind, true},
	{"grainsize", ClauseGrainsize, (*parser).expr, true},
	{"untied", ClauseUntied, (*parser).flag, false}, // accepted: tasks are untied here
	// name is written as a construct argument, never as a clause keyword.
	{"name", ClauseName, nil, true},
	{"depend", ClauseDepend, (*parser).depend, false},
	{"priority", ClausePriority, (*parser).expr, true},
	{"final", ClauseFinal, (*parser).expr, true},
	{"num_tasks", ClauseNumTasks, (*parser).expr, true},
	{"nogroup", ClauseNogroup, (*parser).flag, true},
	{"map", ClauseMap, (*parser).mapClause, false},
	{"device", ClauseDevice, (*parser).expr, true},
	{"num_teams", ClauseNumTeams, (*parser).expr, true},
	{"thread_limit", ClauseThreadLimit, (*parser).expr, true},
	{"is_device_ptr", ClauseIsDevicePtr, (*parser).list, false},
	{"to", ClauseTo, (*parser).motion, false},
	{"from", ClauseFrom, (*parser).motion, false},
}

// clauseRowOf returns k's row, nil for ClauseInvalid.
func clauseRowOf(k ClauseKind) *clauseRow {
	for i := range clauses {
		if clauses[i].kind == k {
			return &clauses[i]
		}
	}
	return nil
}

// The spellings of the small enums, indexed by value; each serves both
// String and the parser.
var (
	scheduleKinds     = []string{SchedStatic: "static", SchedDynamic: "dynamic", SchedGuided: "guided", SchedAuto: "auto", SchedRuntime: "runtime"}
	scheduleModifiers = []string{ModifierNone: "", ModifierMonotonic: "monotonic", ModifierNonmonotonic: "nonmonotonic"}
	defaultModes      = []string{DefaultShared: "shared", DefaultNone: "none"}
	depModes          = []string{DependIn: "in", DependOut: "out", DependInOut: "inout", DependSink: "sink", DependSource: "source"}
	mapTypes          = []string{MapToFrom: "tofrom", MapTo: "to", MapFrom: "from", MapAlloc: "alloc", MapRelease: "release", MapDelete: "delete"}
)

// Word lists of the arguments that are not enums.
const (
	reductionOps     = "+ - * max min & | ^ && ||"
	procBindPolicies = "master primary close spread true false"
	atomicForms      = "read write update capture"
	// cancelTypes are the constructs this runtime can cancel.
	cancelTypes = "parallel for taskgroup sections"
)

// spelling returns names[i], or def when i is out of range.
func spelling(names []string, i int, def string) string {
	if i < 0 || i >= len(names) {
		return def
	}
	return names[i]
}

// hasWord reports whether w is one of the space-separated words of list.
func hasWord(list, w string) bool {
	for list != "" {
		var f string
		f, list, _ = strings.Cut(list, " ")
		if f == w {
			return true
		}
	}
	return false
}

// oneOf renders names as "a, b or c" for diagnostics.
func oneOf(names []string) string {
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}
