package server

import "cnnperf/internal/analysiscache"

// SetCacheTier installs t under the server's analysis cache, so a test
// can inject a fault into the lookups analysis makes.
func (s *Server) SetCacheTier(t analysiscache.SecondTier) { s.cache.SetSecondTier(t) }
