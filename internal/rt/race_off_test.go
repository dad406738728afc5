//go:build !race

package rt

// raceBuild is set under -race, whose instrumentation allocates.
const raceBuild = false
