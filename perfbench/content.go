package main

import "encoding/binary"

// blockBytes is the application I/O size: one 8 KB call, the size of
// one NFS READ or WRITE.
const blockBytes = 8192

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// contentKey names one version of one file's content under the
// workload seed.
func contentKey(seed int64, id, version uint64) uint64 {
	return splitmix(splitmix(uint64(seed)^splitmix(id)) ^ version)
}

// fillAt writes the content of key at byte offset off (a multiple of
// 8) into p.
func fillAt(p []byte, key, off uint64) {
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(w[:], splitmix(key^(off+uint64(i))))
		copy(p[i:], w[:])
	}
}

// fill writes the content of key from offset 0.
func fill(p []byte, key uint64) { fillAt(p, key, 0) }

// rng is the workload generator's seeded source (xorshift*): cheap,
// deterministic, and owned by one goroutine.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: splitmix(uint64(seed)^splitmix(stream)) | 1}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
