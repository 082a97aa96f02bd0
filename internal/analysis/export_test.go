package analysis

import "hpfdsm/internal/compiler"

// Walk replays the model's whole program, as VerifyAnalysis does at
// each level.
func (m *Model) Walk() { m.walk(m.an.Prog.Body) }

// SetRaces turns the model's race analysis on or off, as VerifyAnalysis
// does for its first level and the rest.
func (m *Model) SetRaces(on bool) { m.races = on }

// VerifyTee is VerifyAnalysis with every level's calls through tee.
func VerifyTee(an *compiler.Analysis, tee func(int, bool, compiler.Calls) compiler.Calls, levels ...compiler.Level) *Report {
	return verify(an, tee, levels)
}
