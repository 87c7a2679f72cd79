package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"testdata"}, elem...)...)
}

func TestDetMap(t *testing.T) {
	// Flagged and clean cases inside a result-affecting package.
	linttest.Run(t, fixture("detmap", "sim"), "repro/internal/sim", lint.DetMap)
}

func TestDetMapIgnoresColdPackages(t *testing.T) {
	// The same range-over-map in a package outside the result-affecting set
	// produces nothing.
	linttest.Run(t, fixture("detmap", "cold"), "repro/internal/cold", lint.DetMap)
}

func TestWallTime(t *testing.T) {
	linttest.Run(t, fixture("walltime", "netsim"), "repro/internal/netsim", lint.WallTime)
}

func TestWallTimeAllowsCampaignWatchdog(t *testing.T) {
	linttest.Run(t, fixture("walltime", "campaign"), "repro/internal/campaign", lint.WallTime)
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, fixture("globalrand", "app"), "repro/internal/app", lint.GlobalRand)
}

func TestGlobalRandAllowsRNGFile(t *testing.T) {
	// rng.go inside the sim package may construct raw generators; every
	// other file in the same package may not.
	linttest.Run(t, fixture("globalrand", "sim"), "repro/internal/sim", lint.GlobalRand)
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, fixture("hotalloc", "hot"), "repro/internal/netsim", lint.HotAlloc)
}

func TestDirective(t *testing.T) {
	// Missing reason rejected, unknown analyzer rejected, valid and
	// multi-analyzer suppressions accepted.
	linttest.Run(t, fixture("directive", "dir"), "repro/internal/dir", lint.Directive)
}

func TestValidSuppressionHonored(t *testing.T) {
	// The valid directives in the directive fixture must actually suppress
	// detmap: the fixture's only detmap diagnostics are the ones its want
	// comments demand (none on the valid/multiAnalyzer loops, and the
	// malformed-directive loops stay flagged because a broken directive
	// suppresses nothing).
	linttest.Run(t, fixture("directive", "suppression"), "repro/internal/sim", lint.DetMap)
}
