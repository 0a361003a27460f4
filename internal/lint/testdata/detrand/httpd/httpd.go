package httpd

import "math/rand"

// Server-side jitter does not feed the simulation; httpd is not a Sim
// layer and the global generator is allowed.
func Jitter() int { return rand.Intn(100) }
