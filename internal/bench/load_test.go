package bench

import (
	"strings"
	"testing"

	"hpfdsm/internal/apps"
)

// TestLoadProgram pins the one program loader: an app's PARAMs at each
// sizing, overrides laid over them, a source standing in for an app's
// text under the app's PARAMs, a bare source with its own overrides, and
// the two ways a request names nothing that exists.
func TestLoadProgram(t *testing.T) {
	type load struct {
		name, app, src string
		sizing         Sizing
		params         map[string]int
		want           map[string]int // PARAMs the program must hold
		err            string         // or a part of the error
	}
	var cases []load
	for _, a := range append(apps.All(), apps.Irregular()) {
		for _, s := range []Sizing{Bench, Paper, Scaled} {
			cases = append(cases, load{name: a.Name, app: a.Name, sizing: s, want: ParamsFor(a, s)})
		}
	}
	const src = `PROGRAM tiny
PARAM n = 8
PARAM k = 2
REAL a(n)
DISTRIBUTE a(BLOCK)
FORALL (i = 1:n)
  a(i) = k * i
END FORALL
END
`
	luBlock := strings.Replace(apps.LU().Source, "DISTRIBUTE a(*, CYCLIC)", "DISTRIBUTE a(*, BLOCK)", 1)
	cases = append(cases,
		load{name: "app with overrides", app: "jacobi", sizing: Scaled, params: map[string]int{"ITERS": 2},
			want: map[string]int{"N": 128, "ITERS": 2}},
		load{name: "source replacing an app", app: "lu", src: luBlock, sizing: Bench, want: map[string]int{"N": 192}},
		load{name: "source replacing an app, with overrides", app: "lu", src: luBlock, sizing: Scaled,
			params: map[string]int{"N": 32}, want: map[string]int{"N": 32}},
		load{name: "source", src: src, want: map[string]int{"N": 8, "K": 2}},
		load{name: "source with overrides", src: src, params: map[string]int{"k": 5}, want: map[string]int{"N": 8, "K": 5}},
		load{name: "unknown app", app: "nosuch", sizing: Scaled, err: `apps: unknown application "nosuch"`},
		load{name: "undeclared PARAM on an app", app: "jacobi", sizing: Scaled, params: map[string]int{"M": 3},
			err: "apps: jacobi: no PARAM M to override: program JACOBI declares ITERS, N"},
		load{name: "undeclared PARAM on a source", src: src, params: map[string]int{"M": 3},
			err: "no PARAM M to override: program TINY declares K, N"},
	)
	for _, c := range cases {
		prog, err := LoadProgram(c.app, c.src, c.sizing, c.params)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s at sizing %d: %v", c.name, c.sizing, err)
			continue
		}
		for k, v := range c.want {
			if got, ok := prog.Params[k]; !ok || got != v {
				t.Errorf("%s at sizing %d: PARAMs %v, want %v among them", c.name, c.sizing, prog.Params, c.want)
				break
			}
		}
		// An app at a sizing is the very program the app builds there.
		if a, _ := apps.ByName(c.app); a != nil && c.src == "" && c.params == nil {
			if ref, _ := a.Program(ParamsFor(a, c.sizing)); prog != ref {
				t.Errorf("%s at sizing %d: not the app's own program", c.name, c.sizing)
			}
		}
	}
}
