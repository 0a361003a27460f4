package b

import "fixture/internal/a"

func call() { a.Used() }
