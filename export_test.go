package rakis

// OutstandingForTest returns how many io_uring requests the thread's
// FastPath Module has in flight.
func (t *Thread) OutstandingForTest() int { return t.proxy.FM.Ring().Outstanding() }
