package flownet

// CapLevels counts the rate-cap levels in the current level log.
func CapLevels(n *Net) int {
	c := 0
	for _, lv := range n.levels {
		if lv.link < 0 {
			c++
		}
	}
	return c
}
