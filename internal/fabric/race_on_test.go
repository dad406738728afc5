//go:build race

package fabric

// raceBuild is set under -race, whose instrumentation allocates.
const raceBuild = true
