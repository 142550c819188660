package core

import (
	"math/bits"
	"slices"
)

// pidWindow is the length, in 64-bit words, of pidSet's bit window: the
// 512 most recent PIDs.
const pidWindow = 8

// pidSet holds the registered PIDs (the hash table of Figure 6) as a bit
// set indexed by PID over a window of recent PIDs. The node hands out
// PIDs in increasing order (kernel.Node.NextPID), so a registration lands
// in the window or past its end, and the window slides forward to take
// it. Registered PIDs the window slides past (a resident HPC job outliving
// thousands of pods) move to a short list. The check on every interposed
// call is a shift and a mask for a recent PID and a scan of that list for
// an old one, and a run that hands out thousands of PIDs while a handful
// are registered allocates only the list.
type pidSet struct {
	words [pidWindow]uint64 // bit b of words[i] is PID 64*(first+i)+b
	first int               // word index of the window's first word
	old   []int             // registered PIDs below the window
	n     int               // PIDs in the set
}

// has reports whether pid is in the set.
func (s *pidSet) has(pid int) bool {
	if w := pid>>6 - s.first; w >= 0 {
		return w < pidWindow && s.words[w]&(1<<(pid&63)) != 0
	}
	return slices.Contains(s.old, pid)
}

// add puts pid in the set.
func (s *pidSet) add(pid int) {
	if s.has(pid) {
		return
	}
	s.n++
	w := pid>>6 - s.first
	if w < 0 {
		s.old = append(s.old, pid)
		return
	}
	if w >= pidWindow {
		s.slide(w - pidWindow + 1)
		w = pidWindow - 1
	}
	s.words[w] |= 1 << (pid & 63)
}

// slide moves the window forward by k words, moving the PIDs of the words
// it leaves to the old list.
func (s *pidSet) slide(k int) {
	for i, b := range s.words[:min(k, pidWindow)] {
		for ; b != 0; b &= b - 1 {
			s.old = append(s.old, (s.first+i)<<6+bits.TrailingZeros64(b))
		}
	}
	if k < pidWindow {
		copy(s.words[:], s.words[k:])
	}
	clear(s.words[max(pidWindow-k, 0):])
	s.first += k
}

// remove takes pid out of the set, if it is there.
func (s *pidSet) remove(pid int) {
	if !s.has(pid) {
		return
	}
	s.n--
	if w := pid>>6 - s.first; w >= 0 {
		s.words[w] &^= 1 << (pid & 63)
		return
	}
	i := slices.Index(s.old, pid)
	s.old = slices.Delete(s.old, i, i+1)
}
