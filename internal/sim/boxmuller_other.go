//go:build !amd64

package sim

// StdNormals sets z[i] to the standard normal Normal draws from the
// uniform pair (u1[i], u2[i]), bit for bit; u1 and u2 must be at least as
// long as z. Normal scales the draw of its pair by its deviation and adds
// its mean. Off amd64 it is the scalar loop.
func StdNormals(z, u1, u2 []float64) {
	u1, u2 = u1[:len(z)], u2[:len(z)]
	for i := range z {
		z[i] = stdNormal(u1[i], u2[i])
	}
}
