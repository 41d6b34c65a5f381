//! Seeded input generation. Everything a workload feeds the system —
//! the peer roster, which peer initiates each check, the domain and
//! product it asks about, and when — is drawn here from the run's seed.
//! The system under test receives only these generated values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sheriff_core::system::PpcSpec;
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};

/// Locations the peer roster is spread over. PPC fan-out is
/// location-local (§6.1), so every location holds many peers and every
/// check finds its full `ppc_per_request` quota of same-area vantages.
const PEER_LOCATIONS: [(Country, usize); 4] = [
    (Country::ES, 0),
    (Country::FR, 0),
    (Country::DE, 0),
    (Country::GB, 0),
];

/// First peer id; peers are numbered consecutively from here.
pub const FIRST_PEER: u64 = 100;

/// One check request as the benchmark issues it.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Initiating peer.
    pub peer: u64,
    /// Retailer domain.
    pub domain: String,
    /// Product on that retailer.
    pub product: ProductId,
}

/// The synthetic world every workload runs against. The world's own
/// seed is fixed: the benchmark seed varies the traffic, not the web.
pub fn world() -> World {
    World::build(&WorldConfig::small(), 31)
}

/// `n` peers, round-robin over [`PEER_LOCATIONS`], with the platform
/// and affluence varied so vantages are not clones of one another.
pub fn roster(n: u64) -> Vec<PpcSpec> {
    let agents = [
        (Os::Linux, Browser::Firefox),
        (Os::Windows, Browser::Chrome),
        (Os::MacOs, Browser::Safari),
    ];
    (0..n)
        .map(|i| {
            let (country, city_idx) = PEER_LOCATIONS[i as usize % PEER_LOCATIONS.len()];
            let (os, browser) = agents[(i / 4) as usize % agents.len()];
            PpcSpec {
                peer_id: FIRST_PEER + i,
                country,
                city_idx,
                user_agent: UserAgent { os, browser },
                affluence: 0.1 + 0.1 * (i % 5) as f64,
                logged_in_domains: vec![],
            }
        })
        .collect()
}

/// Domains a check may target: every retailer without bot detection.
/// The Alexa set CAPTCHAs more than 120 requests per minute per IP,
/// counted in wall milliseconds on the TCP backend, so a faster system
/// would trip more CAPTCHAs there and change its own work.
pub fn check_domains(world: &World) -> Vec<(String, usize)> {
    let alexa = world.alexa_domains();
    world
        .domains()
        .filter(|d| !alexa.contains(d))
        .map(|d| {
            let products = world.retailer(d).map_or(0, |r| r.products.len());
            (d.to_string(), products)
        })
        .filter(|(_, products)| *products > 0)
        .collect()
}

/// `n` requests drawn from `seed`: a uniformly random initiator from
/// `peers` peers, domain from `domains`, product from that domain's
/// catalogue.
pub fn requests(seed: u64, n: usize, peers: u64, domains: &[(String, usize)]) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    (0..n)
        .map(|_| {
            let (domain, products) = &domains[rng.gen_range(0..domains.len())];
            Request {
                peer: FIRST_PEER + rng.gen_range(0..peers),
                domain: domain.clone(),
                product: ProductId(rng.gen_range(0..*products) as u32),
            }
        })
        .collect()
}

/// Open-loop arrival offsets in seconds: a Poisson process of `rate`
/// arrivals per second, `n` arrivals, drawn from `seed` alone.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential gap; 1 - u keeps ln away from 0.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Quantized k-means client points: `n` points of `m` coordinates on
/// `0..=scale`, grouped around `groups` hidden profiles so the
/// clustering has structure to find.
pub fn kmeans_points(seed: u64, n: usize, m: usize, scale: u64, groups: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
    let centers: Vec<Vec<u64>> = (0..groups)
        .map(|_| (0..m).map(|_| rng.gen_range(0..=scale)).collect())
        .collect();
    (0..n)
        .map(|i| {
            centers[i % groups]
                .iter()
                .map(|&c| {
                    let jitter: i64 = rng.gen_range(-1..=1);
                    (c as i64 + jitter).clamp(0, scale as i64) as u64
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 40.0, 500);
        let b = poisson_schedule(7, 40.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 40.0, 500));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals increase");
        // 500 arrivals at 40/s span about 12.5 s; the mean gap of an
        // exponential sample this size lands well within 15%.
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!(
            (mean_gap - 0.025).abs() < 0.025 * 0.15,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn requests_are_seeded_and_avoid_bot_detecting_domains() {
        let w = world();
        let domains = check_domains(&w);
        assert!(domains.iter().all(|(d, _)| !d.starts_with("alexa-")));
        let a = requests(3, 200, 64, &domains);
        assert_eq!(a, requests(3, 200, 64, &domains));
        assert_ne!(a, requests(4, 200, 64, &domains));
        for r in &a {
            assert!((FIRST_PEER..FIRST_PEER + 64).contains(&r.peer));
            let retailer = w.retailer(&r.domain).expect("drawn domain exists");
            assert!(retailer.product(r.product).is_some());
        }
    }

    #[test]
    fn every_roster_location_has_fan_out_room() {
        let peers = roster(64);
        for (country, city) in PEER_LOCATIONS {
            let here = peers
                .iter()
                .filter(|p| p.country == country && p.city_idx == city)
                .count();
            assert!(here > 3, "{country:?} has {here} peers");
        }
    }
}
