package dispatch

import "hash/fnv"

// RendezvousOwner picks key's owner among names by highest-random-weight
// (rendezvous) hashing: score every (key, name) pair, highest wins,
// ties breaking toward the lexicographically smaller name. Every
// replica hashing the same membership agrees on the owner with no
// coordination, and membership churn is minimally disruptive: removing
// a name remaps only the keys it owned; adding one steals only the
// keys it now wins.
func RendezvousOwner(key string, names []string) string {
	var (
		winner string
		best   uint64
		have   bool
	)
	for _, name := range names {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(name))
		score := h.Sum64()
		if !have || score > best || (score == best && name < winner) {
			winner, best, have = name, score, true
		}
	}
	return winner
}
