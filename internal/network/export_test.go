package network

// poisonKind and poisonByte mark a message, and its payload, that the
// quarantine reclaimed. No protocol kind or payload stamp uses either.
const (
	poisonKind Kind = 0xDB
	poisonByte byte = 0xDB
)

// quarantineReclaims makes n poison every message its last Recycle
// reclaims, pooled payload included, and keep both out of circulation,
// so no later NewMessage or AllocBlock hands them out again. A reference
// released too early then surfaces where the message is next used: the
// wire panics on its out-of-range endpoints, and a handler sees
// poisonKind and poisoned bytes. It returns the count of reclaimed
// messages.
func quarantineReclaims(n *Network) *int {
	reclaimed := new(int)
	n.quarantine = func(m *Message) {
		if m.DataPooled {
			for i := range m.Data {
				m.Data[i] = poisonByte
			}
		}
		*m = Message{Src: -1, Dst: -1, Kind: poisonKind, Arg: -1, Seq: -1, Data: m.Data, net: n}
		*reclaimed++
	}
	return reclaimed
}

// QuarantineNew quarantines every network made until stop is called —
// those a whole simulation builds included — and returns the count of
// messages their quarantines reclaimed. Sequential runs only: one
// partition's reclaims would race another's on the count.
func QuarantineNew() (reclaimed func() int, stop func()) {
	var counts []*int
	newHook = func(n *Network) { counts = append(counts, quarantineReclaims(n)) }
	reclaimed = func() int {
		total := 0
		for _, c := range counts {
			total += *c
		}
		return total
	}
	return reclaimed, func() { newHook = nil }
}

// RaceDetectorEnabled tells the external tests to skip allocation pins.
const RaceDetectorEnabled = raceDetectorEnabled

// FreshPools makes every network until restore is called take new
// pools and drop them when it is done, as the first network of a fresh
// process would, leaving the keep alone.
func FreshPools() (restore func()) {
	take, release := takePools, releasePools
	takePools = func(k int) []msgPool { return make([]msgPool, k) }
	releasePools = func([]msgPool) {}
	return func() { takePools, releasePools = take, release }
}

// PoisonReleased poisons every pool a network releases until stop is
// called: each free message's fields, each free payload's bytes and the
// in-flight count. A network that takes such a pool must still hand
// out zeroed messages, count its own traffic from zero and never read a
// payload byte it did not write.
func PoisonReleased() (stop func()) {
	release := releasePools
	releasePools = func(pools []msgPool) {
		for i := range pools {
			p := &pools[i]
			for _, m := range p.free {
				*m = Message{Src: -1, Dst: -1, Kind: poisonKind, Addr: -1, Arg: -1, Arg2: -1,
					Size: -1, Seq: -1, DataPooled: true, refs: -1, flow: ^uint64(0)}
			}
			for _, bucket := range p.varFree {
				for _, b := range bucket {
					for k := range b {
						b[k] = poisonByte
					}
				}
			}
			p.inflight = -1 << 20
		}
		release(pools)
	}
	return func() { releasePools = release }
}
