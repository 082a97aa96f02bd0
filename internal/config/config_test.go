package config

import (
	"strings"
	"testing"

	"hpfdsm/internal/sim"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestWithers(t *testing.T) {
	m := Default().WithNodes(4).WithCPUMode(SingleCPU).WithBlockSize(64)
	if m.Nodes != 4 || m.CPUMode != SingleCPU || m.BlockSize != 64 {
		t.Fatalf("withers did not apply: %+v", m)
	}
	// Original untouched.
	d := Default()
	if d.Nodes != 8 || d.CPUMode != DualCPU || d.BlockSize != 128 {
		t.Fatalf("Default mutated: %+v", d)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero nodes", func(m *Machine) { m.Nodes = 0 }},
		{"too many nodes", func(m *Machine) { m.Nodes = MaxNodes + 1 }},
		{"bad radix", func(m *Machine) { m.Radix = 1 }},
		{"oversize radix", func(m *Machine) { m.Radix = 65 }},
		{"zero block", func(m *Machine) { m.BlockSize = 0 }},
		{"odd block", func(m *Machine) { m.BlockSize = 100 }},
		{"page not multiple", func(m *Machine) { m.PageSize = 1000 }},
		{"payload under block", func(m *Machine) { m.MaxPayload = 64 }},
		{"negative latency", func(m *Machine) { m.WireLatency = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := Default()
			c.mut(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

func TestValidateRejectsUnmodellableMachines(t *testing.T) {
	// Machines the simulator cannot model: a block wider than the 16-bit
	// dirty-word mask silently corrupts data, a negative header schedules
	// a delivery in the past, a negative cost runs time backwards. Each
	// is refused by field name, from Validate and from FromJSON alike.
	fields := []string{
		"MsgHeader", "NsPerFlop", "LoopOver", "SendOver", "RecvOver", "HandlerCost",
		"FaultCost", "TagChange", "BlockCopy", "BulkPerBlock", "PageMapCost", "BarrierEntry",
		"MPSendOver", "MPRecvOver", "MPPackPerByte",
	}
	cases := map[string]string{ // JSON override -> what the error must name
		`{"BlockSize": 256}`:                     "block size 256",
		`{"BlockSize": 136, "MaxPayload": 4080}`: "block size 136",
	}
	for _, f := range fields {
		cases[`{"`+f+`": -1}`] = "negative " + f
	}
	for in, want := range cases {
		_, err := FromJSON(strings.NewReader(in))
		if err == nil || !strings.HasPrefix(err.Error(), "config: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("FromJSON(%s) = %v, want a config: error naming %q", in, err, want)
		}
	}
	if err := Default().WithBlockSize(256).Validate(); err == nil {
		t.Error("Validate accepted a 256-byte block")
	}
	for _, bs := range []int{32, 64, 128} {
		if err := Default().WithBlockSize(bs).Validate(); err != nil {
			t.Errorf("Validate refused the %d-byte block of the paper's range: %v", bs, err)
		}
	}
	zero := Default()
	zero.MsgHeader, zero.BarrierEntry, zero.LoopOver = 0, 0, 0
	if err := zero.Validate(); err != nil {
		t.Errorf("Validate refused zero costs: %v", err)
	}
}

func TestShortMessageRoundTrip(t *testing.T) {
	// Table 1: minimum round trip for a 4-byte message is 40 µs.
	// Round trip = 2 * (SendOver + MsgTime(4) + RecvOver).
	m := Default()
	rt := 2 * (m.SendOver + m.MsgTime(4) + m.RecvOver)
	if rt < 38*sim.Microsecond || rt > 42*sim.Microsecond {
		t.Fatalf("short-message round trip = %d ns, want ~40 µs", rt)
	}
}

func TestMsgTimeScalesWithSize(t *testing.T) {
	m := Default()
	small := m.MsgTime(0)
	big := m.MsgTime(1000)
	if big-small != 1000*m.NsPerByte {
		t.Fatalf("MsgTime delta = %d, want %d", big-small, 1000*m.NsPerByte)
	}
}

func TestCPUModeString(t *testing.T) {
	if DualCPU.String() != "dual-cpu" || SingleCPU.String() != "single-cpu" {
		t.Fatal("CPUMode String broken")
	}
	if CPUMode(9).String() == "" {
		t.Fatal("unknown CPUMode String empty")
	}
}

func TestFromJSON(t *testing.T) {
	m, err := FromJSON(strings.NewReader(`{"Nodes": 16, "NsPerByte": 12}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 16 || m.NsPerByte != 12 {
		t.Fatalf("overrides not applied: %+v", m)
	}
	if m.BlockSize != 128 {
		t.Fatal("defaults not preserved")
	}
	if _, err := FromJSON(strings.NewReader(`{"Nodes": 9999}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{`)); err == nil {
		t.Fatal("bad json accepted")
	}
	// The failure-detection constants were never set by anything and are
	// no longer fields; the reliable-delivery knobs tests do set remain.
	for _, k := range []string{"WatchdogHorizon", "ProbeTimeout", "MaxProbes", "BarrierTimeout", "RecoveryDelay"} {
		if _, err := FromJSON(strings.NewReader(`{"Faults": {"` + k + `": 1}}`)); err == nil {
			t.Errorf("machine JSON naming Faults.%s accepted", k)
		}
	}
	// Nor is the coalescer's batch window, which only ever had one value.
	if _, err := FromJSON(strings.NewReader(`{"AggDelay": 50000}`)); err == nil {
		t.Error("machine JSON naming AggDelay accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{"Faults": {"MaxRetries": 2, "AckDelay": 5}}`)); err != nil {
		t.Errorf("kept reliable-delivery knobs refused: %v", err)
	}
}
