package analysis_test

import (
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/config"
)

// TestVerifyAllApps runs the static verifier over every shipped app at
// every optimization level: the seed schedules must satisfy the
// Section 4.2 contract with no errors.
func TestVerifyAllApps(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog, err := a.Program(a.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := analysis.Verify(prog, config.Default(), analysis.Levels()...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.HasErrors() {
				t.Errorf("verifier errors:\n%s", rep)
			}
			if rep.Instances == 0 {
				t.Errorf("verifier checked no schedule instances:\n%s", rep)
			}
			if rep.Loops == 0 {
				t.Errorf("verifier found no loops:\n%s", rep)
			}
			t.Logf("\n%s", rep)
		})
	}
}
