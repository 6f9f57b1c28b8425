package user

import (
	"testing"

	"pressio/internal/analysis/testdata/src/deadcode_bad"
)

func TestUses(t *testing.T) { _ = deadcode_bad.UsedByOtherTests() }
