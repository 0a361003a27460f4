package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestSimTime(t *testing.T) {
	linttest.Run(t, lint.SimTime,
		linttest.Package{Path: "repro/internal/sim", Dir: "testdata/simtime/sim"})
}

func TestSimTimeAllowsNonSimLayers(t *testing.T) {
	linttest.Run(t, lint.SimTime,
		linttest.Package{Path: "repro/internal/httpd", Dir: "testdata/simtime/httpd"})
}
