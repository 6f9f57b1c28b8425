package deadcode_bad

import "testing"

func TestTestOnly(t *testing.T) { _ = testOnly() }
