package skip

import "fixture/internal/a"

func skipped() { a.Unused() }
