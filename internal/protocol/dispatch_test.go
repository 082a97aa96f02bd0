package protocol

import (
	"fmt"
	"slices"
	"testing"

	"hpfdsm/internal/config"
	"hpfdsm/internal/network"
	"hpfdsm/internal/tempest"
)

// hit is one handler run a stubbed dispatch table saw: the row that ran,
// the node it ran on, and the message it was handed.
type hit struct {
	row  network.Kind
	node int
	kind network.Kind
	addr int
}

// stubKinds replaces every row's handler with one that records its runs,
// until the test ends. Rows keep their names and carrier marks.
func stubKinds(t *testing.T) *[]hit {
	t.Helper()
	saved := kinds
	t.Cleanup(func() { kinds = saved })
	var hits []hit
	for k := range kinds {
		if kinds[k].handle == nil {
			continue
		}
		row := network.Kind(k)
		kinds[k].handle = func(np *nodeProto, _ *tempest.HContext, m *network.Message) {
			hits = append(hits, hit{row, np.id, m.Kind, m.Addr})
		}
	}
	return &hits
}

// carrierKinds are the latency-tolerant kinds the coalescer may buffer:
// tagged data, flush-directory updates, mk_writable data and acks, and
// the eager-release upgrade and invalidation legs.
var carrierKinds = []network.Kind{
	KWriteReq, KUpgradeReq, KWriteGrant, KInval, KInvalAck,
	KMkWritableData, KMkWritableAck, KCCData, KCCFlush, KCCFlushDir,
}

// TestTableMarksTheCarrierKinds pins which rows may ride a carrier and
// that every declared kind has a handler.
func TestTableMarksTheCarrierKinds(t *testing.T) {
	var marked []network.Kind
	for k := range kinds {
		if kinds[k].carrier {
			marked = append(marked, network.Kind(k))
		}
		if k > 0 && kinds[k].handle == nil {
			t.Errorf("kind %d (%s) has no handler", k, network.KindName(network.Kind(k)))
		}
	}
	want := slices.Clone(carrierKinds)
	slices.Sort(want)
	if !slices.Equal(marked, want) {
		t.Fatalf("carrier kinds %v, want %v", marked, want)
	}
}

// TestAttachBindsEveryRow: a plain message of each kind runs its own
// row's handler on the receiving node, once.
func TestAttachBindsEveryRow(t *testing.T) {
	hits := stubKinds(t)
	h := newHarness(t, 2, 2, config.DualCPU)
	var want []hit
	for k := range kinds {
		if kinds[k].handle == nil {
			continue
		}
		kind := network.Kind(k)
		h.c.Net.Send(&network.Message{Src: 0, Dst: 1, Kind: kind, Addr: 8 * k, Size: ctrlSize})
		want = append(want, hit{kind, 1, kind, 8 * k})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*hits, want) {
		t.Fatalf("handler runs %v, want %v", *hits, want)
	}
}

// TestCarrierSegmentsReachTheirRows: every kind the table marks as a
// carrier kind, arriving as a segment of a carrier, runs its own row's
// handler with its own fields.
func TestCarrierSegmentsReachTheirRows(t *testing.T) {
	hits := stubKinds(t)
	h := newHarness(t, 2, 2, config.DualCPU)
	var sent []*network.Message
	co := h.c.Net.AttachCoalescer(0, KCoalesced, ctrlSize, 0, func(m *network.Message) { sent = append(sent, m) })
	var want []hit
	for i, k := range carrierKinds {
		co.Append(1, k, 100+i, int64(i), 0, nil, false)
		want = append(want, hit{k, 1, k, 100 + i})
	}
	co.FlushDst(1)
	if len(sent) != 1 || sent[0].Kind != KCoalesced {
		t.Fatalf("coalescer sent %v, want one carrier", sent)
	}
	h.p.nodes[1].hCoalesced(nil, sent[0])
	if !slices.Equal(*hits, want) {
		t.Fatalf("segment handler runs %v, want %v", *hits, want)
	}
}

// TestNonCarrierSegmentPanics: a segment of a kind the table does not
// mark as a carrier kind, or of no kind at all, is a protocol bug.
func TestNonCarrierSegmentPanics(t *testing.T) {
	stubKinds(t)
	h := newHarness(t, 2, 2, config.DualCPU)
	for _, k := range []network.Kind{0, KReadReq, KReadResp, KWriteResp, KPutDataReq, KPutDataResp,
		KMkWritableReq, KCoalesced, KInvalTree, KInvalFwd, KInvalAckFwd, KInvalAckTree, KInvalAckTree + 1, 255} {
		func() {
			want := fmt.Sprintf("protocol: kind %d cannot travel as a carrier segment", k)
			defer func() {
				if r := recover(); r != want {
					t.Errorf("kind %d: panic %v, want %q", k, r, want)
				}
			}()
			h.p.nodes[1].dispatchSeg(nil, &network.Message{Src: 0, Dst: 1, Kind: k})
		}()
	}
}
