//go:build !race

package caf_test

// raceBuild is set under -race, whose instrumentation allocates.
const raceBuild = false
