// Package freelist is a simlint fixture: pooled-value lifetime cases
// for the freelist analyzer. The pool shapes mirror the network layer:
// NewMessage/NewDataMessage/AllocBlock/AllocVar allocate, n.Recycle(m)
// or m.Recycle() returns to the pool, Retain exempts a delivered value.
package freelist

type Msg struct{ N int }

func (m *Msg) Recycle() {}
func (m *Msg) Retain()  {}

type Pool struct{ free []*Msg }

func (p *Pool) NewMessage() *Msg             { return &Msg{} }
func (p *Pool) NewDataMessage(b []byte) *Msg { return &Msg{N: len(b)} }
func (p *Pool) AllocBlock() *Msg             { return &Msg{} }
func (p *Pool) AllocVar(n int) *Msg          { return &Msg{N: n} }
func (p *Pool) Recycle(m *Msg)               { p.free = append(p.free, m) }

func useAfterRecycle(p *Pool) int {
	m := p.NewMessage()
	p.Recycle(m)
	return m.N // want `m used after Recycle`
}

func dataUseAfterRecycle(p *Pool, b []byte) int {
	m := p.NewDataMessage(b)
	p.Recycle(m)
	return m.N // want `m used after Recycle`
}

func doubleRecycle(p *Pool) {
	m := p.NewMessage()
	m.N = 1
	p.Recycle(m)
	p.Recycle(m) // want `double Recycle of m`
}

func methodDoubleRecycle(p *Pool) {
	v := p.AllocVar(8)
	v.Recycle()
	v.Recycle() // want `double Recycle of v`
}

func retainAfterRecycle(p *Pool) {
	b := p.AllocBlock()
	b.Recycle()
	b.Retain() // want `Retain of b after Recycle`
}

// conditionalRecycle only recycles on one path; the straight-line use
// below is not unconditionally preceded by the Recycle, so the
// conservative check stays silent.
func conditionalRecycle(p *Pool, drop bool) int {
	m := p.NewMessage()
	if drop {
		p.Recycle(m)
	}
	return m.N
}

// reallocate rebinds the variable to a fresh pool value; the earlier
// Recycle no longer applies.
func reallocate(p *Pool) int {
	m := p.NewMessage()
	p.Recycle(m)
	m = p.NewMessage()
	return m.N
}

// deferredRecycle runs the Recycle at function exit; uses before the
// return are fine and the analyzer treats the deferred call as such.
func deferredRecycle(p *Pool) int {
	m := p.NewMessage()
	defer p.Recycle(m)
	return m.N
}

// retainThenRecycle is the legitimate ordering.
func retainThenRecycle(p *Pool) {
	m := p.NewMessage()
	m.Retain()
	p.Recycle(m)
}

// transmit hands the wire its own references to m; the caller keeps
// the one NewMessage gave it.
func (p *Pool) transmit(m *Msg) {}

// releaseAfterTransmit is the reliable layer's control-message idiom
// (sendCtrl): the sender drops its own reference right after the wire
// took its references.
func releaseAfterTransmit(p *Pool) {
	m := p.NewMessage()
	m.N = 1
	p.transmit(m)
	p.Recycle(m)
}

// useAfterRelease reads the message after dropping its reference: the
// wire's references may already be gone, so m may be on the freelist.
func useAfterRelease(p *Pool) int {
	m := p.NewMessage()
	p.transmit(m)
	p.Recycle(m)
	return m.N // want `m used after Recycle`
}

// retransmitAfterRelease hands a released message back to the wire.
func retransmitAfterRelease(p *Pool) {
	m := p.NewMessage()
	p.transmit(m)
	p.Recycle(m)
	p.transmit(m) // want `m used after Recycle`
}
