package lang

import (
	"maps"
	"slices"
)

// Fixtures returns the sources this package's tests parse, the valid
// programs first and then every invalid one, in a fixed order.
func Fixtures() []string {
	out := []string{jacobiSrc, irregularSrc, subSrc}
	for _, cases := range []map[string]string{parseErrors, moreParseErrors, subErrors} {
		for _, name := range slices.Sorted(maps.Keys(cases)) {
			out = append(out, cases[name])
		}
	}
	return out
}
