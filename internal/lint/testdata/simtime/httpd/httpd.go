package httpd

import "time"

// httpd serves real requests, not the simulation: stamping them with the
// wall clock is allowed and the layer table leaves it unflagged.
func Stamp() time.Time { return time.Now() }
