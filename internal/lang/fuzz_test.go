package lang_test

import (
	"os"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/lang"
)

// FuzzParse: whatever the source, and with or without a PARAM
// override, ParseWithOverrides returns a program or an error, one of
// the two, and never panics. The seeds are every application, the
// benchmark's miss-storm program and this package's test fixtures.
func FuzzParse(f *testing.F) {
	for _, a := range append(apps.All(), apps.Irregular()) {
		f.Add(a.Source, 0)
	}
	storm, err := os.ReadFile("../../benchmark/programs/storm.hpf")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(storm), 0)
	f.Add(string(storm), 64)
	for _, src := range lang.Fixtures() {
		f.Add(src, 0)
	}
	f.Fuzz(func(t *testing.T, src string, n int) {
		var over map[string]int
		if n != 0 {
			over = map[string]int{"N": n}
		}
		prog, err := lang.ParseWithOverrides(src, over)
		if (prog == nil) == (err == nil) {
			t.Fatalf("ParseWithOverrides returned program %v and error %v", prog, err)
		}
	})
}
