//go:build race

package live

func init() { raceDetector = true }
