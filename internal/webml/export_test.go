package webml

// CountValidations makes every Validate call increment *n until the
// returned function restores the default.
func CountValidations(n *int) (restore func()) {
	validateHook = func() { *n++ }
	return func() { validateHook = nil }
}
