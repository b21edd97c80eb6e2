//! Criterion benches for the perception kernels: depth capture, point-cloud
//! generation, object detection and the SLAM failure model.
use criterion::{criterion_group, criterion_main, Criterion};
use mav_env::{EnvironmentConfig, ObstacleClass};
use mav_perception::{
    DetectorConfig, Localizer, ObjectDetector, PointCloud, SlamConfig, VisualSlam,
};
use mav_sensors::{DepthCamera, DepthCameraConfig, DepthNoiseModel};
use mav_types::{Pose, SimTime, Vec3};

fn bench_depth_and_pointcloud(c: &mut Criterion) {
    let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
    let camera = DepthCamera::new(DepthCameraConfig::default());
    let pose = Pose::new(Vec3::new(0.0, 0.0, 2.5), 0.0);
    c.bench_function("depth_capture_32x24", |b| {
        b.iter(|| camera.capture(&world, &pose).coverage())
    });
    // Fig. 18's camera: 16x the rays from the same pose in the same world.
    let fig18_camera = DepthCamera::new(DepthCameraConfig::high_resolution());
    c.bench_function("depth_capture_128x96", |b| {
        b.iter(|| fig18_camera.capture(&world, &pose).coverage())
    });
    let frame = camera.capture(&world, &pose);
    c.bench_function("pointcloud_generation", |b| {
        b.iter(|| PointCloud::from_depth_image(&frame).len())
    });
    let cloud = PointCloud::from_depth_image(&frame);
    c.bench_function("pointcloud_downsample_0.5m", |b| {
        b.iter(|| cloud.downsample(0.5).len())
    });
    let mut noise = DepthNoiseModel::new(1.0, 7);
    c.bench_function("depth_noise_injection", |b| {
        b.iter(|| {
            let mut f = frame.clone();
            noise.apply(&mut f);
            f.coverage()
        })
    });
}

fn bench_detection_and_slam(c: &mut Criterion) {
    let world = EnvironmentConfig::disaster_site().with_seed(5).generate();
    let pose = Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0);
    c.bench_function("object_detection_scene_query", |b| {
        let mut detector = ObjectDetector::new(DetectorConfig::default());
        b.iter(|| {
            detector
                .detect_class(&world, &pose, ObstacleClass::Person)
                .is_some()
        })
    });
    c.bench_function("visual_slam_frame", |b| {
        let mut slam = VisualSlam::new(SlamConfig::with_fps(5.0));
        b.iter(|| {
            slam.localize(&pose, &Vec3::new(3.0, 0.0, 0.0), SimTime::ZERO)
                .healthy
        })
    });
}

criterion_group!(
    benches,
    bench_depth_and_pointcloud,
    bench_detection_and_slam
);
criterion_main!(benches);
