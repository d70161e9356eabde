package mip

// SetColdLPs switches the all-cold-LP hook (coldLPs) for the package's
// external tests.
func SetColdLPs(on bool) { coldLPs = on }
