package xpu

// HandlerThreads reports the configured handler thread count.
func (n *Node) HandlerThreads() int { return n.handlers.Capacity() }
