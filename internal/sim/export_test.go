package sim

// WakeHeapCap returns the capacity of s's wake heap now, and the capacity
// New gives it.
func WakeHeapCap(s *Sim) (now, initial int) { return cap(s.wakes), smallCap }
