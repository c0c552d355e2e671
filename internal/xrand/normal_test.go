package xrand

import (
	"math"
	"testing"
)

// TestZigguratTables rebuilds kn, wn and fn by the recurrence of Marsaglia
// & Tsang's zigset — 128 strips of equal area vn under the density, the
// base strip's edge at rn — rounded as the tables store them, and wants
// every entry equal. A single mistyped entry skews only its strip's 1/128
// of the draws, too little for the moments to see.
func TestZigguratTables(t *testing.T) {
	const m1 = 1 << 31 // the abscissa's scale: j is a signed 32-bit draw
	const vn = 9.91256303526217e-3
	var k [128]uint32
	var w, f [128]float32
	dn, tn := rn, rn
	q := vn / math.Exp(-.5*dn*dn)
	k[0] = uint32(dn / q * m1)
	w[0] = float32(q / m1)
	w[127] = float32(dn / m1)
	f[0] = 1
	f[127] = float32(math.Exp(-.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-.5*dn*dn)))
		k[i+1] = uint32(dn / tn * m1)
		tn = dn
		f[i] = float32(math.Exp(-.5 * dn * dn))
		w[i] = float32(dn / m1)
	}
	for i := range k {
		if k[i] != kn[i] || w[i] != wn[i] || f[i] != fn[i] {
			t.Errorf("strip %d: kn, wn, fn = %#x, %v, %v; the recurrence gives %#x, %v, %v", i, kn[i], wn[i], fn[i], k[i], w[i], f[i])
		}
	}
}
