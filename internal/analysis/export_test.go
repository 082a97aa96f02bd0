package analysis

// Walk replays the model's whole program, as VerifyAnalysis does at
// each level.
func (m *Model) Walk() { m.walk(m.an.Prog.Body) }
