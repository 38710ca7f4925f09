//go:build amd64

package tensor

// forceGoKernel switches the micro kernel to the portable math.FMA loop
// and returns the function that restores the detected setting.
func forceGoKernel() (restore func()) {
	detected := useAVX2
	useAVX2 = false
	return func() { useAVX2 = detected }
}
