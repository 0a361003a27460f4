package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestDetRand(t *testing.T) {
	linttest.Run(t, lint.DetRand,
		linttest.Package{Path: "repro/internal/sim", Dir: "testdata/detrand/sim"})
}

func TestDetRandAllowsNonSimLayers(t *testing.T) {
	linttest.Run(t, lint.DetRand,
		linttest.Package{Path: "repro/internal/httpd", Dir: "testdata/detrand/httpd"})
}
