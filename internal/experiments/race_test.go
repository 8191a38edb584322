//go:build race

package experiments

// raceEnabled reports a -race build, whose detector allocates on its own:
// allocation pins that count bytes do not hold under it.
const raceEnabled = true
