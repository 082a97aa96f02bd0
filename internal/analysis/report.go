// Package analysis is the static incoherence-safety verifier: it takes
// a compiled program (IR, distributions, and the per-level
// communication schedules of internal/compiler) and — without running
// the simulator — checks the Section 4.2 contract that makes it safe to
// bypass the eager-invalidate coherence protocol:
//
//   - every non-owner-write section is covered by a mk_writable whose
//     flush reaches the home before the next conflicting read,
//   - every send is matched by a ready_to_recv on the consumer with
//     identical block extents,
//   - shmem_limits results are block-aligned and within array bounds,
//   - the barrier discipline keeps frame opening ordered before data
//     arrival (a happens-before check over the emitted call sequence),
//   - OptRTElim / OptPRE never drop a call that a lower optimization
//     level proves necessary (checked by differencing the emitted call
//     sequences across levels and re-validating every elision).
//
// On top of the contract checker, an IR-level race detector flags
// overlapping writer sections and read/write overlaps inside a parallel
// loop — accesses no barrier separates — using the section-intersection
// arithmetic of internal/sections.
//
// Every diagnostic carries provenance: program, loop label, symbol
// valuation, optimization level, array, and section, so a violation
// reads as "which compiler decision went wrong", not as a raw block
// address.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/sections"
)

// Severity classifies a diagnostic.
type Severity int

// Severities. Errors make hpfc -lint fail and hpfrun -verify refuse to
// simulate; warnings and infos are advisory.
const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	return [...]string{"info", "warning", "error"}[s]
}

// Contract and race rule identifiers. Each diagnostic cites exactly one.
const (
	RuleRecvMatch   = "contract/recv-match"   // send without matching ready_to_recv / count mismatch
	RuleSendExtent  = "contract/send-extent"  // emitted sends differ from the schedule's block extents
	RuleFrameOrder  = "contract/frame-order"  // data may arrive before the consumer opened its frame
	RuleWriteFlush  = "contract/write-flush"  // non-owner write not covered by mk_writable + flush
	RuleFlushOwner  = "contract/flush-owner"  // flush destination is not the section's home
	RuleSendOwner   = "contract/send-owner"   // read-transfer sender does not own the section
	RuleAlignment   = "contract/shmem-limits" // blocks not the block-aligned interior, or out of bounds
	RuleBarrier     = "contract/barrier"      // barrier count differs across nodes (deadlock)
	RuleElision     = "contract/elision"      // a higher level dropped a call a lower level proves necessary
	RuleAggMatrix   = "contract/agg-matrix"   // aggregation-policy traffic matrices disagree with the transfers' extents
	RuleBounds      = "program/bounds"        // the loop's bounds drive a distributed subscript outside its array
	RuleRaceWrite   = "race/write-write"      // overlapping writer sections in one parallel loop
	RuleRaceRW      = "race/read-write"       // read/write overlap not separated by a barrier
	RuleRaceIndir   = "race/indirect"         // irregular reference: race analysis not applicable (info)
	RuleSuppression = "lint/suppression"      // a tracked suppression matched (info)
)

// Site is the provenance of a diagnostic: where in the compiled program
// the checked fact lives.
type Site struct {
	App   string         // program name
	Loop  string         // parallel loop / reduction label
	Env   string         // symbol valuation, e.g. "K=10" ("" when constant)
	Level compiler.Level // optimization level being verified
	Array string         // array involved ("" when not applicable)
	Sec   string         // array section, e.g. "(1:64,3:3)" ("" when not applicable)
}

func (s Site) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: loop %s", s.App, s.Loop)
	if s.Env != "" {
		fmt.Fprintf(&b, " [%s]", s.Env)
	}
	if s.Array != "" {
		b.WriteString(": " + s.Array + s.Sec)
	}
	return b.String()
}

// Diag is one verifier finding.
type Diag struct {
	Severity Severity
	Rule     string
	Site     Site
	Msg      string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s %s: %s: %s (level %v)", d.Severity, d.Rule, d.Site, d.Msg, d.Site.Level)
}

// Suppression records a known, accepted violation: diagnostics matching
// Rule and Loop are downgraded to Info with the reason attached. Every
// suppression must carry a reason; they are printed with the report so
// nothing is silently ignored.
type Suppression struct {
	Rule   string // rule identifier, e.g. RuleRaceRW
	Loop   string // loop label the suppression applies to
	Reason string
}

// Report collects the diagnostics of one verification run together with
// the positive facts: which contract rules were checked and held, per
// loop — the invariant auditor cross-references these so a dynamic
// violation cites the static guarantee it broke.
type Report struct {
	Prog   string
	Levels []compiler.Level
	Diags  []Diag

	// verified[loop][rule] is true when the rule was checked for the
	// loop and produced no error at any verified level.
	verified map[string]map[string]bool
	// Instances counts checked (loop, valuation, level) schedule
	// instantiations.
	Instances int
	// Loops counts distinct parallel loops and reductions examined.
	Loops int
}

// NewReport returns an empty report for prog (Verify does this for
// callers; tests drive Model directly and need one too).
func NewReport(prog string) *Report {
	return &Report{Prog: prog, verified: map[string]map[string]bool{}}
}

func (r *Report) add(d Diag) { r.Diags = append(r.Diags, d) }

// markChecked records that rule ran for loop (initially assumed to
// hold; a subsequent error for the same loop+rule clears it).
func (r *Report) markChecked(loop, rule string) {
	m := r.verified[loop]
	if m == nil {
		m = map[string]bool{}
		r.verified[loop] = m
	}
	if _, ok := m[rule]; !ok {
		m[rule] = true
	}
}

func (r *Report) markBroken(loop, rule string) {
	m := r.verified[loop]
	if m == nil {
		m = map[string]bool{}
		r.verified[loop] = m
	}
	m[rule] = false
}

// RulesFor returns the contract rules that were checked and held for
// the labeled loop, sorted. Empty when the loop was never verified.
func (r *Report) RulesFor(loop string) []string {
	var out []string
	for rule, ok := range r.verified[loop] {
		if ok {
			out = append(out, rule)
		}
	}
	sort.Strings(out)
	return out
}

// Errors returns the number of error-severity diagnostics.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// HasErrors reports whether any hard error was found.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// Apply downgrades diagnostics matching a suppression to Info, citing
// the reason. It returns the suppressions that matched nothing (stale
// entries a caller should prune).
func (r *Report) Apply(sups []Suppression) []Suppression {
	var stale []Suppression
	for _, s := range sups {
		hit := false
		for i := range r.Diags {
			d := &r.Diags[i]
			if d.Rule == s.Rule && d.Site.Loop == s.Loop && d.Severity == Error {
				d.Severity = Info
				d.Msg += " [suppressed: " + s.Reason + "]"
				hit = true
			}
		}
		if !hit {
			stale = append(stale, s)
		}
	}
	return stale
}

// String renders the report, diagnostics first (errors leading), then a
// one-line summary.
func (r *Report) String() string {
	var b strings.Builder
	ds := make([]Diag, len(r.Diags))
	copy(ds, r.Diags)
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Severity > ds[j].Severity })
	for _, d := range ds {
		fmt.Fprintln(&b, d)
	}
	levels := make([]string, len(r.Levels))
	for i, l := range r.Levels {
		levels[i] = l.String()
	}
	fmt.Fprintf(&b, "%s: %d loop(s), %d schedule instance(s), levels [%s]: %d error(s), %d warning(s)\n",
		r.Prog, r.Loops, r.Instances, strings.Join(levels, " "), r.Errors(), r.count(Warn))
	return b.String()
}

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// secString renders a section for provenance ("" for a zero section).
func secString(sec sections.Section) string {
	if len(sec.Dims) == 0 {
		return ""
	}
	return sec.String()
}
