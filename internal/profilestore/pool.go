package profilestore

import "sync"

// VecPool recycles fixed-length float64 scratch vectors — the
// country-sized buffers every prediction writes into. The serving
// handlers run one Get/Put per request, so the pool is what keeps the
// hot path at zero steady-state allocations; hand-rolled sync.Pools grew in
// three packages before this helper consolidated them.
//
// The pool stores *[]float64 (not []float64) so Put does not box the
// slice header into a fresh interface allocation each time.
type VecPool struct {
	n int
	p sync.Pool
}

// NewVecPool returns a pool of length-n vectors.
func NewVecPool(n int) *VecPool {
	vp := &VecPool{n: n}
	vp.p.New = func() any {
		b := make([]float64, n)
		return &b
	}
	return vp
}

// Get takes a vector from the pool. Contents are undefined — every
// consumer (PredictInto, PredictPartialInto, the gateway merge) zeroes
// or overwrites the full vector before reading it.
func (vp *VecPool) Get() *[]float64 { return vp.p.Get().(*[]float64) }

// Put returns a vector taken from Get. Wrong-length vectors are
// dropped rather than poisoning the pool.
func (vp *VecPool) Put(b *[]float64) {
	if b != nil && len(*b) == vp.n {
		vp.p.Put(b)
	}
}
